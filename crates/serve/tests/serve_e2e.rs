//! In-process end-to-end tests: a real server on a loopback port, real
//! HTTP, and bit-parity against the offline compiled forward.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use turl_core::{TurlConfig, TurlModel};
use turl_data::{Cell, EntityRef, Table, Vocab};
use turl_nn::ParamStore;
use turl_serve::client::{get, post};
use turl_serve::{
    EncodeResponse, ErrorEnvelope, HealthResponse, MetricsResponse, RankRequest, RankResponse,
    ServeOptions, Session, TableRequest,
};

fn sample_table(i: usize, rows: usize) -> Table {
    Table {
        id: format!("t{i}"),
        page_title: "Films".into(),
        section_title: String::new(),
        caption: format!("films by director {i}"),
        topic_entity: Some(EntityRef { id: (i % 5) as u32, mention: "festival".into() }),
        headers: vec!["film".into(), "director".into()],
        subject_column: 0,
        rows: (0..rows)
            .map(|r| {
                vec![
                    Cell::linked(((i + r * 2) % 20 + 5) as u32, "alpha beta"),
                    Cell::linked(((i + r * 3) % 20 + 5) as u32, "gamma"),
                ]
            })
            .collect(),
    }
}

fn make_session(seed: u64) -> Session {
    session_with_visibility(seed, true)
}

fn session_with_visibility(seed: u64, use_visibility: bool) -> Session {
    let texts =
        ["films by director 0 1 2 3 4 5 6 7 8 9 festival film alpha beta gamma delta epsilon"];
    let vocab = Vocab::build(texts.iter().map(|s| &**s), 1);
    let cfg = TurlConfig::small(seed);
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = TurlModel::new(&mut store, &mut rng, cfg, vocab.len(), 30);
    Session::new(model, store, vocab, use_visibility)
}

fn serve(session: Arc<Session>, opts: ServeOptions) -> (turl_serve::ServerHandle, String) {
    let handle = turl_serve::start(session, &opts).expect("server starts");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn loopback_opts() -> ServeOptions {
    ServeOptions { addr: "127.0.0.1:0".into(), ..ServeOptions::default() }
}

#[test]
fn health_metrics_and_every_task_endpoint_respond() {
    let session = Arc::new(make_session(41));
    let (handle, addr) = serve(Arc::clone(&session), loopback_opts());

    let (status, body) = get(&addr, "/healthz").expect("healthz");
    assert_eq!(status, 200, "{body}");
    let health: HealthResponse = serde_json::from_str(&body).expect("health json");
    assert!(health.ok);
    assert_eq!(health.n_words, session.n_words());
    assert_eq!(health.n_entities, 30);

    let table = sample_table(1, 3);
    let table_req = serde_json::to_string(&TableRequest { table: table.clone() }).expect("json");
    let rank_req = serde_json::to_string(&RankRequest {
        table: table.clone(),
        cell: 1,
        candidates: vec![3, 9, 14],
    })
    .expect("json");
    let cases = [
        ("/v1/encode", table_req.clone()),
        ("/v1/entity_linking", rank_req.clone()),
        ("/v1/cell_filling", rank_req.clone()),
        (
            "/v1/row_population",
            format!(
                "{{\"table\":{},\"candidates\":[2,7,11]}}",
                serde_json::to_string(&table).expect("json")
            ),
        ),
        (
            "/v1/column_type",
            format!("{{\"table\":{},\"column\":1}}", serde_json::to_string(&table).expect("json")),
        ),
        (
            "/v1/relation_extraction",
            format!(
                "{{\"table\":{},\"object_column\":1}}",
                serde_json::to_string(&table).expect("json")
            ),
        ),
        ("/v1/schema_augmentation", table_req.clone()),
    ];
    for (path, body) in &cases {
        let (status, resp) = post(&addr, path, body).expect("request");
        assert_eq!(status, 200, "{path}: {resp}");
    }

    let (status, body) = get(&addr, "/metrics.json").expect("metrics");
    assert_eq!(status, 200);
    let m: MetricsResponse = serde_json::from_str(&body).expect("metrics json");
    assert!(m.requests >= cases.len() as u64);
    assert!(m.ok >= cases.len() as u64);
    assert!(m.batches >= 1);
    assert!(m.plan_cache_size >= 1.0);
    handle.shutdown();
}

#[test]
fn concurrent_responses_are_bit_identical_to_offline_infer() {
    let session = Arc::new(make_session(42));
    // Cache off so every request really crosses the batching queue and a
    // compiled forward — this is the micro-batching parity test.
    let opts = ServeOptions {
        workers: 2,
        conns: 6,
        max_batch: 4,
        max_wait_us: 2_000,
        cache_cap: 0,
        ..loopback_opts()
    };
    let (handle, addr) = serve(Arc::clone(&session), opts);

    // Offline references through the same compiled path `turl infer`
    // uses, computed serially before any load hits the server.
    let tables: Vec<Table> = (0..4).map(|i| sample_table(i, 3)).collect();
    let mut cf = session.model().compiled();
    let mut want: Vec<Vec<u32>> = Vec::new();
    for t in &tables {
        let (_, enc) = session.encode_table(t).expect("encode");
        let h = cf.encode(session.model(), session.store(), &enc).expect("solo encode");
        want.push(h.data().iter().map(|v| v.to_bits()).collect());
    }

    let mut threads = Vec::new();
    for worker in 0..6 {
        let addr = addr.clone();
        let tables = tables.clone();
        let want: Vec<Vec<u32>> = want.clone();
        threads.push(std::thread::spawn(move || {
            for round in 0..3 {
                let i = (worker + round) % tables.len();
                let body = serde_json::to_string(&TableRequest { table: tables[i].clone() })
                    .expect("json");
                let (status, resp) = post(&addr, "/v1/encode", &body).expect("request");
                assert_eq!(status, 200, "{resp}");
                let parsed: EncodeResponse = serde_json::from_str(&resp).expect("encode json");
                let got: Vec<u32> = parsed.data.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want[i], "served bits diverged from offline (table {i})");
            }
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }
    handle.shutdown();
}

/// Same-shape requests released together reach one worker within its
/// wait window, so they run as one batched forward — masked or not —
/// and every body equals the solo offline encode's, byte for byte.
#[test]
fn coalesced_batches_answer_like_solo_encodes() {
    for use_visibility in [true, false] {
        let session = Arc::new(session_with_visibility(43, use_visibility));
        let opts = ServeOptions {
            workers: 1,
            conns: 4,
            max_batch: 4,
            max_wait_us: 500_000,
            cache_cap: 0,
            ..loopback_opts()
        };
        let (handle, addr) = serve(Arc::clone(&session), opts);
        // The counters are process-wide, so this server's are deltas.
        let metrics = || -> MetricsResponse {
            let (_, body) = get(&addr, "/metrics.json").expect("metrics");
            serde_json::from_str(&body).expect("metrics json")
        };
        let before = metrics();

        // Four tables of one shape: the caption's digit is one token.
        let mut cf = session.model().compiled();
        let mut cases = Vec::new();
        for i in 0..4 {
            let body =
                serde_json::to_string(&TableRequest { table: sample_table(i, 3) }).expect("json");
            let (input, head) = session.build_job("/v1/encode", &body).expect("job");
            let h = cf.encode(session.model(), session.store(), &input).expect("solo encode");
            let want = session.apply_head(&cf, &head, &h, false).expect("offline body");
            cases.push((body, want));
        }

        let gate = Arc::new(std::sync::Barrier::new(cases.len()));
        let threads: Vec<_> = (cases.into_iter().enumerate())
            .map(|(i, (body, want))| {
                let (addr, gate) = (addr.clone(), Arc::clone(&gate));
                std::thread::spawn(move || {
                    gate.wait();
                    let (status, resp) = post(&addr, "/v1/encode", &body).expect("request");
                    assert_eq!(status, 200, "{resp}");
                    assert_eq!(resp, want, "table {i} (visibility {use_visibility})");
                })
            })
            .collect();
        for t in threads {
            t.join().expect("client thread");
        }

        let after = metrics();
        let (tables, batches) =
            (after.batched_tables - before.batched_tables, after.batches - before.batches);
        assert!(
            tables > batches,
            "no batch formed (visibility {use_visibility}): {tables} tables in {batches} batches"
        );
        // Other tests' servers bump the same counters; this server's own
        // traces show the batch too.
        let (_, jsonl) = get(&addr, "/admin/traces").expect("traces");
        let events = turl_obs::parse_jsonl(&jsonl).expect("trace JSONL");
        let widest = (events.iter())
            .map(|ev| turl_obs::RequestTrace::from_event(ev).expect("trace fields").0.batch_size)
            .max();
        assert!(widest > Some(1), "no request rode a batch (visibility {use_visibility})");
        handle.shutdown();
    }
}

#[test]
fn ranking_matches_offline_mer_logits() {
    let session = Arc::new(make_session(43));
    let (handle, addr) = serve(Arc::clone(&session), loopback_opts());
    let table = sample_table(2, 4);
    let candidates = [3u32, 9, 14, 21];
    let body = serde_json::to_string(&RankRequest {
        table: table.clone(),
        cell: 2,
        candidates: candidates.to_vec(),
    })
    .expect("json");
    let (status, resp) = post(&addr, "/v1/entity_linking", &body).expect("request");
    assert_eq!(status, 200, "{resp}");
    let rank: RankResponse = serde_json::from_str(&resp).expect("rank json");

    // Offline: same masking, same compiled encode, same MER head.
    let (_, mut enc) = session.encode_table(&table).expect("encode");
    enc.mask_entity(2, false, session.mask_word());
    let mut cf = session.model().compiled();
    let h = cf.encode(session.model(), session.store(), &enc).expect("solo encode");
    let cands: Vec<usize> = candidates.iter().map(|&c| c as usize).collect();
    let logits = cf
        .mer_logits(session.model(), session.store(), &h, &[enc.entity_row(2)], &cands)
        .expect("mer");
    let mut order: Vec<usize> = (0..cands.len()).collect();
    let scores = logits.data();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then_with(|| a.cmp(&b)));
    let want_ranking: Vec<u32> = order.iter().map(|&i| candidates[i]).collect();
    let want_scores: Vec<u32> = order.iter().map(|&i| scores[i].to_bits()).collect();
    assert_eq!(rank.ranking, want_ranking);
    let got_scores: Vec<u32> = rank.scores.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_scores, want_scores, "served MER scores diverged from offline");
    handle.shutdown();
}

#[test]
fn cache_serves_bit_identical_replays() {
    let session = Arc::new(make_session(44));
    let (handle, addr) = serve(Arc::clone(&session), loopback_opts());
    let body = serde_json::to_string(&TableRequest { table: sample_table(3, 2) }).expect("json");
    let (s1, r1) = post(&addr, "/v1/encode", &body).expect("request");
    let (s2, r2) = post(&addr, "/v1/encode", &body).expect("request");
    assert_eq!((s1, s2), (200, 200));
    let a: EncodeResponse = serde_json::from_str(&r1).expect("json");
    let b: EncodeResponse = serde_json::from_str(&r2).expect("json");
    assert!(!a.cached, "first request must miss");
    assert!(b.cached, "replay must hit the cache");
    let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.data), bits(&b.data), "cache hit changed the served bits");
    let (_, m) = get(&addr, "/metrics.json").expect("metrics");
    let m: MetricsResponse = serde_json::from_str(&m).expect("metrics json");
    assert!(m.cache_hits >= 1);
    assert!(m.cache_misses >= 1);
    handle.shutdown();
}

#[test]
fn malformed_requests_are_typed_4xx_never_panics() {
    let session = Arc::new(make_session(45));
    let (handle, addr) = serve(Arc::clone(&session), loopback_opts());
    let table = sample_table(4, 2);
    let table_json = serde_json::to_string(&table).expect("json");
    let empty = Table {
        id: "empty".into(),
        page_title: String::new(),
        section_title: String::new(),
        caption: String::new(),
        topic_entity: None,
        headers: vec![],
        subject_column: 0,
        rows: vec![],
    };
    let huge_entity =
        Table { rows: vec![vec![Cell::linked(9_999, "alpha")]], ..sample_table(5, 0) };
    let cases: Vec<(&str, String, u16)> = vec![
        ("/v1/encode", "this is not json".into(), 400),
        ("/v1/encode", "{\"nope\":1}".into(), 400),
        ("/v1/encode", serde_json::to_string(&TableRequest { table: empty }).expect("json"), 400),
        (
            "/v1/encode",
            serde_json::to_string(&TableRequest { table: huge_entity }).expect("json"),
            400,
        ),
        // cell index past the linked-entity sequence
        (
            "/v1/entity_linking",
            format!("{{\"table\":{table_json},\"cell\":999,\"candidates\":[1]}}"),
            400,
        ),
        // candidate past the entity vocabulary
        (
            "/v1/entity_linking",
            format!("{{\"table\":{table_json},\"cell\":0,\"candidates\":[4000000000]}}"),
            400,
        ),
        // empty candidate list
        (
            "/v1/cell_filling",
            format!("{{\"table\":{table_json},\"cell\":0,\"candidates\":[]}}"),
            400,
        ),
        // column out of range
        ("/v1/column_type", format!("{{\"table\":{table_json},\"column\":77}}"), 400),
        ("/v1/relation_extraction", format!("{{\"table\":{table_json},\"object_column\":9}}"), 400),
        // unknown endpoint
        ("/v1/definitely_not_a_task", table_json.clone(), 404),
    ];
    for (path, body, want) in &cases {
        let (status, resp) = post(&addr, path, body).expect("request");
        assert_eq!(status, *want, "{path} with `{body}` -> {resp}");
        let env: ErrorEnvelope = serde_json::from_str(&resp).expect("typed error envelope");
        assert!(!env.error.code.is_empty());
        assert!(!env.error.message.is_empty());
    }
    // Wrong method on a task endpoint.
    let (status, _) = get(&addr, "/v1/encode").expect("request");
    assert_eq!(status, 405);
    // The server must still be healthy after the adversarial battery.
    let (status, _) = get(&addr, "/healthz").expect("healthz");
    assert_eq!(status, 200);
    let (_, m) = get(&addr, "/metrics.json").expect("metrics");
    let m: MetricsResponse = serde_json::from_str(&m).expect("metrics json");
    assert!(m.client_errors >= cases.len() as u64);
    assert_eq!(m.server_errors, 0, "adversarial inputs must never be 5xx");
    handle.shutdown();
}

#[test]
fn shutdown_completes_in_flight_work_and_stops_accepting() {
    let session = Arc::new(make_session(46));
    let (handle, addr) = serve(Arc::clone(&session), loopback_opts());
    // Load the server from several threads, then shut down and verify
    // every accepted request got a real response.
    let mut threads = Vec::new();
    for i in 0..4 {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let body =
                serde_json::to_string(&TableRequest { table: sample_table(i, 2) }).expect("json");
            post(&addr, "/v1/encode", &body)
        }));
    }
    let results: Vec<_> = threads.into_iter().map(|t| t.join().expect("client")).collect();
    for r in results {
        let (status, body) = r.expect("in-flight request must complete");
        assert_eq!(status, 200, "{body}");
    }
    handle.shutdown();
    // Post-shutdown the port must be closed.
    assert!(get(&addr, "/healthz").is_err(), "server still accepting after shutdown");
}

#[test]
fn responses_are_bit_identical_with_tracing_on_and_off() {
    // Two servers over the SAME session parameters, one tracing, one
    // not, driven with identical concurrent batched load: every
    // response body must match byte-for-byte. This is the determinism
    // contract of the telemetry layer.
    let session = Arc::new(make_session(48));
    let base = ServeOptions {
        workers: 2,
        conns: 4,
        max_batch: 4,
        max_wait_us: 2_000,
        cache_cap: 0,
        ..loopback_opts()
    };
    let (h_on, addr_on) =
        serve(Arc::clone(&session), ServeOptions { tracing: true, ..base.clone() });
    let (h_off, addr_off) = serve(Arc::clone(&session), ServeOptions { tracing: false, ..base });

    let tables: Vec<Table> = (0..4).map(|i| sample_table(i, 3)).collect();
    let run = |addr: String, tables: Vec<Table>| {
        std::thread::spawn(move || {
            let mut bodies: Vec<Vec<String>> = Vec::new();
            let mut threads = Vec::new();
            for worker in 0..4usize {
                let addr = addr.clone();
                let tables = tables.clone();
                threads.push(std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for round in 0..3 {
                        let i = (worker + round) % tables.len();
                        let body =
                            serde_json::to_string(&TableRequest { table: tables[i].clone() })
                                .expect("json");
                        let (status, resp) = post(&addr, "/v1/encode", &body).expect("request");
                        assert_eq!(status, 200, "{resp}");
                        got.push(resp);
                    }
                    got
                }));
            }
            for t in threads {
                bodies.push(t.join().expect("client thread"));
            }
            bodies
        })
    };
    let on = run(addr_on, tables.clone());
    let off = run(addr_off, tables);
    let on = on.join().expect("traced load");
    let off = off.join().expect("untraced load");
    assert_eq!(on, off, "tracing changed served bytes");

    // The traced server sampled something; the untraced one must not.
    assert!(!h_on.traces_jsonl().is_empty(), "tracing on but reservoir empty");
    assert!(h_off.traces_jsonl().is_empty(), "tracing off but reservoir non-empty");
    h_on.shutdown();
    h_off.shutdown();
}

#[test]
fn metrics_endpoint_is_valid_prometheus_with_stage_histograms() {
    let session = Arc::new(make_session(49));
    let (handle, addr) = serve(Arc::clone(&session), loopback_opts());
    let body = serde_json::to_string(&TableRequest { table: sample_table(6, 2) }).expect("json");
    let (status, _) = post(&addr, "/v1/encode", &body).expect("request");
    assert_eq!(status, 200);

    let (status, text) = get(&addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    let samples = turl_obs::parse_exposition(&text).expect("valid Prometheus exposition");

    // Per-stage time histograms must be live: every stage family
    // exists, and the stages a lone uncached request crosses have
    // observations.
    for stage in ["decode", "queue_wait", "batch_assemble", "forward", "encode", "write"] {
        let count = turl_obs::sample_value(&samples, "serve_stage_us_count", &[("stage", stage)])
            .unwrap_or_else(|| panic!("missing serve_stage_us_count for stage {stage}"));
        assert!(count >= 1.0, "stage {stage} has no observations");
    }
    // Per-endpoint latency histogram for the endpoint we hit.
    let count =
        turl_obs::sample_value(&samples, "serve_latency_us_count", &[("endpoint", "encode")])
            .expect("per-endpoint latency family");
    assert!(count >= 1.0);
    assert!(turl_obs::histogram_quantile(
        &samples,
        "serve_latency_us",
        &[("endpoint", "encode")],
        0.5
    )
    .is_some());
    // Build info and uptime gauges.
    let build = samples.iter().find(|s| s.name == "turl_build_info").expect("turl_build_info");
    assert_eq!(build.value, 1.0);
    for key in ["version", "dtype", "cores"] {
        assert!(build.label(key).is_some(), "turl_build_info lacks label {key}");
    }
    assert_eq!(build.label("kernel"), Some(turl_tensor::ops::kernel_body()));
    assert!(turl_obs::sample_value(&samples, "serve_uptime_seconds", &[]).is_some());
    assert!(turl_obs::sample_value(&samples, "serve_queue_depth_max", &[]).is_some());
    assert!(turl_obs::sample_value(&samples, "serve_rejected_overload", &[]).is_some());
    handle.shutdown();
}

#[test]
fn traces_endpoint_serves_schema_valid_jsonl_and_echoes_request_ids() {
    let session = Arc::new(make_session(50));
    let (handle, addr) = serve(Arc::clone(&session), loopback_opts());
    let body = serde_json::to_string(&TableRequest { table: sample_table(7, 2) }).expect("json");
    for _ in 0..3 {
        let (status, _) = post(&addr, "/v1/encode", &body).expect("request");
        assert_eq!(status, 200);
    }

    let (status, jsonl) = get(&addr, "/admin/traces").expect("traces");
    assert_eq!(status, 200);
    let events = turl_obs::parse_jsonl(&jsonl).expect("trace JSONL passes the strict schema");
    assert!(!events.is_empty(), "no traces sampled");
    let mut cached_seen = false;
    for ev in &events {
        assert_eq!(ev.kind, "trace");
        let (trace, sample) = turl_obs::RequestTrace::from_event(ev).expect("trace fields");
        assert_eq!(trace.endpoint, "/v1/encode");
        assert_eq!(trace.status, 200);
        assert_eq!(trace.total_ns, trace.stage_ns.iter().sum::<u64>());
        assert!(trace.total_ns > 0, "empty span timeline");
        assert!(sample == "slow" || sample == "uniform");
        cached_seen |= trace.cached;
    }
    assert!(cached_seen, "replayed table should have produced a cached trace");

    // A caller-supplied x-request-id must round-trip into the sampled
    // trace ids and the response header.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let req = format!(
        "POST /v1/encode HTTP/1.1\r\nHost: {addr}\r\nx-request-id: my-trace-7\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(
        raw.to_ascii_lowercase().contains("x-request-id: my-trace-7"),
        "response must echo the caller's x-request-id"
    );
    let (_, jsonl) = get(&addr, "/admin/traces").expect("traces");
    assert!(jsonl.contains("my-trace-7"), "caller trace id must reach the reservoir");
    handle.shutdown();
}

/// Read one `Content-Length`-framed response off `stream`, starting from
/// the bytes already in `buf` and leaving there whatever follows it.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (String, String) {
    let mut chunk = [0u8; 512];
    loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..end]).into_owned();
            let len: usize = head
                .lines()
                .find_map(|l| {
                    l.to_ascii_lowercase().strip_prefix("content-length:").map(String::from)
                })
                .and_then(|v| v.trim().parse().ok())
                .expect("content-length");
            if buf.len() >= end + 4 + len {
                let body = String::from_utf8_lossy(&buf[end + 4..end + 4 + len]).into_owned();
                buf.drain(..end + 4 + len);
                return (head, body);
            }
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "connection closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let session = Arc::new(make_session(51));
    let (handle, addr) = serve(Arc::clone(&session), loopback_opts());
    let body = serde_json::to_string(&TableRequest { table: sample_table(8, 2) }).expect("json");

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut buf = Vec::new();

    // Two requests down the same connection: the first response must
    // say keep-alive and the second must still be answered.
    for round in 0..2 {
        let req = format!(
            "POST /v1/encode HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes()).expect("write");
        let (head, resp_body) = read_response(&mut stream, &mut buf);
        assert!(head.starts_with("HTTP/1.1 200"), "round {round}: {head}");
        assert!(
            head.to_ascii_lowercase().contains("connection: keep-alive"),
            "round {round} response must be keep-alive: {head}"
        );
        let parsed: EncodeResponse = serde_json::from_str(&resp_body).expect("encode json");
        assert!(!parsed.data.is_empty());
    }

    // The keep-alive Client wrapper should report reuse.
    let mut client = turl_serve::Client::new(&addr);
    for _ in 0..4 {
        let (status, _) = client.post("/v1/encode", &body).expect("request");
        assert_eq!(status, 200);
    }
    assert_eq!(client.requests(), 4);
    assert_eq!(client.connects(), 1, "client should reuse one connection");
    assert!(client.reuse_rate() > 0.7);
    handle.shutdown();
}

/// Two requests in one write (HTTP pipelining) each get a response, in
/// order: the bytes read past the first request are the second one.
#[test]
fn pipelined_requests_each_get_a_response() {
    let session = Arc::new(make_session(53));
    let (handle, addr) = serve(session, loopback_opts());
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).expect("read timeout");
    let req = format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n");
    stream.write_all(format!("{req}{req}").as_bytes()).expect("write");
    let mut buf = Vec::new();
    for i in 0..2 {
        let (head, body) = read_response(&mut stream, &mut buf);
        assert!(head.starts_with("HTTP/1.1 200"), "response {i}: {head}");
        let health: HealthResponse = serde_json::from_str(&body).expect("health json");
        assert!(health.ok);
    }
    drop(stream);
    handle.shutdown();
}

#[test]
fn admin_shutdown_flips_the_stop_flag() {
    let session = Arc::new(make_session(47));
    let (handle, addr) = serve(Arc::clone(&session), loopback_opts());
    assert!(!handle.stop_requested());
    let (status, _) = post(&addr, "/admin/shutdown", "{}").expect("request");
    assert_eq!(status, 200);
    assert!(handle.stop_requested());
    handle.shutdown();
}
