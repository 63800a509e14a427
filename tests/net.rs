//! Integration tests for the HTTP/1.1 network front: byte-identity
//! with in-process plans, the full malformed-input matrix (each bad
//! request yields a typed 4xx — or a cancelled request — without
//! tearing down the listener or leaking quota), disconnect-driven
//! cancellation, keep-alive, graceful-shutdown drain (idle keep-alive
//! connections closed, in-flight requests answered), streamed sweeps on
//! pooled connections, and snapshot → adopt hops that keep a stream's
//! definition bit for bit.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fact_clean::net::api::{
    plan_identity_json, plan_json, BudgetSpec, CreateStreamRequest, PlanView, RecommendRequest,
    SweepRequest, MAX_DISCRETIZE_SUPPORT,
};
use fact_clean::net::client::{self, ApiClient, ClientError, SweepStream};
use fact_clean::net::json::Json;
use fact_clean::net::{PlannerServer, ServerConfig, ServerHandle};
use fact_clean::prelude::*;
use fc_core::{EngineCache, Result as CoreResult, SolverRegistry, WorkerPool};
use fc_datasets::cdc::cdc_firearms_gaussian;

mod common;
use common::{registry_with_slow, session, sweep_connection_counter, window_session};

fn test_config() -> ServerConfig {
    ServerConfig::new()
        .with_read_timeout(Duration::from_millis(300))
        .with_disconnect_poll(Duration::from_millis(10))
}

/// Boots a server over a fresh session registered as stream `"crime"`.
fn boot() -> (ServerHandle, PlannerService) {
    boot_with(
        registry_with_slow(Duration::from_millis(400)),
        test_config(),
    )
}

fn boot_with(
    registry: Arc<SolverRegistry>,
    config: ServerConfig,
) -> (ServerHandle, PlannerService) {
    let service = PlannerService::new(registry, ServiceOptions::new().with_inline_threshold(0));
    boot_service(service, config)
}

/// Like [`boot`], but the service solves on a single worker, so sweep
/// points complete strictly one after another — the deterministic
/// setup the streaming tests observe mid-sweep.
fn boot_sequential(delay: Duration) -> (ServerHandle, PlannerService) {
    let service = PlannerService::new(
        registry_with_slow(delay),
        ServiceOptions::new()
            .with_inline_threshold(0)
            .with_pool(Arc::new(WorkerPool::new(1))),
    );
    boot_service(service, test_config())
}

fn boot_service(service: PlannerService, config: ServerConfig) -> (ServerHandle, PlannerService) {
    let stream = ClaimStream::open(session(), service.clone());
    let handle = PlannerServer::new(service.clone())
        .with_config(config)
        .with_stream("crime", stream)
        .serve("127.0.0.1:0")
        .expect("bind ephemeral port");
    (handle, service)
}

/// One raw HTTP exchange on a fresh connection; returns (status, body).
/// Raw bytes, not `client::request` — the malformed cases must hit the
/// wire exactly as written.
fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.write_all(raw).expect("send");
    client::read_response(&mut sock).expect("response")
}

fn post(addr: SocketAddr, path: &str, json: &str, tenant: Option<&str>) -> (u16, String) {
    let headers: Vec<(&str, &str)> = tenant.map(|t| ("x-tenant", t)).into_iter().collect();
    client::post(addr, path, json, &headers).expect("response")
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    client::get(addr, path).expect("response")
}

/// The wire-level identity of a plan: its divergence-relevant fields,
/// encoded exactly as the server encodes them.
fn identity(plan: &Plan) -> String {
    plan_identity_json(plan).to_string()
}

/// Strips the observability-only diagnostics from a served plan JSON.
fn served_identity(body: &str) -> String {
    let Json::Obj(fields) = Json::parse(body).expect("plan JSON") else {
        panic!("plan response is not an object: {body}");
    };
    Json::Obj(
        fields
            .into_iter()
            .filter(|(k, _)| k != "diagnostics")
            .collect(),
    )
    .to_string()
}

#[test]
fn recommend_over_http_is_byte_identical_to_in_process() {
    let (server, service) = boot();
    let addr = server.addr();
    for (measure, name) in [
        (Measure::Bias, "bias"),
        (Measure::Dup, "dup"),
        (Measure::Frag, "frag"),
    ] {
        let expected = session()
            .recommend(ObjectiveSpec::ascertain(measure), Budget::absolute(2))
            .unwrap();
        let (status, body) = post(
            addr,
            "/v1/recommend",
            &format!(r#"{{"stream":"crime","measure":"{name}","budget":2}}"#),
            None,
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(served_identity(&body), identity(&expected), "{name}");
    }
    // MaxPr with a strategy override rides the same path.
    let expected = session()
        .recommend(ObjectiveSpec::find_counter(5.0), Budget::absolute(2))
        .unwrap();
    let (status, body) = post(
        addr,
        "/v1/recommend",
        r#"{"stream":"crime","measure":"bias","goal":{"maxpr":5},"budget":2}"#,
        None,
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(served_identity(&body), identity(&expected));
    assert!(service.stats().submitted >= 4);
}

#[test]
fn sweep_over_http_matches_in_process() {
    let (server, _service) = boot();
    let budgets: Vec<Budget> = (1..=4).map(Budget::absolute).collect();
    let expected = session()
        .recommend_sweep(&ObjectiveSpec::ascertain(Measure::Dup), &budgets)
        .unwrap();
    let (status, body) = post(
        server.addr(),
        "/v1/sweep",
        r#"{"stream":"crime","measure":"dup","budgets":[1,2,3,4]}"#,
        None,
    );
    assert_eq!(status, 200, "{body}");
    let parsed = Json::parse(&body).unwrap();
    let plans = parsed.get("plans").and_then(Json::as_array).expect("plans");
    assert_eq!(plans.len(), expected.len());
    for (served, exp) in plans.iter().zip(&expected) {
        assert_eq!(served_identity(&served.to_string()), identity(exp));
    }
}

#[test]
fn clean_endpoint_invalidates_and_post_clean_plans_are_fresh() {
    let (server, _service) = boot();
    let addr = server.addr();
    let (_, body) = post(
        addr,
        "/v1/recommend",
        r#"{"stream":"crime","measure":"dup","budget":2}"#,
        None,
    );
    let objects: Vec<usize> = Json::parse(&body)
        .unwrap()
        .get("objects")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|v| v.as_usize().unwrap())
        .collect();
    let revealed: Vec<f64> = objects
        .iter()
        .map(|&i| session().instance().dist(i).max_value())
        .collect();
    let clean_body = format!(
        r#"{{"objects":{},"revealed":{}}}"#,
        Json::Arr(objects.iter().map(|&o| Json::Num(o as f64)).collect()),
        Json::Arr(revealed.iter().map(|&v| Json::Num(v)).collect()),
    );
    let (status, body) = post(addr, "/v1/streams/crime/clean", &clean_body, None);
    assert_eq!(status, 200, "{body}");
    let invalidated = Json::parse(&body)
        .unwrap()
        .get("invalidated")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(invalidated > 0, "the stale fingerprint's entries dropped");

    // Post-clean serve matches a fresh session over the cleaned data.
    let expected = session()
        .after_cleaning(
            &Selection::from_objects(objects, session().data().costs()),
            &revealed,
        )
        .unwrap()
        .recommend(ObjectiveSpec::ascertain(Measure::Dup), Budget::absolute(2))
        .unwrap();
    let (status, body) = post(
        addr,
        "/v1/recommend",
        r#"{"stream":"crime","measure":"dup","budget":2}"#,
        None,
    );
    assert_eq!(status, 200);
    assert_eq!(served_identity(&body), identity(&expected));
}

#[test]
fn malformed_inputs_yield_typed_4xx_and_the_listener_survives() {
    let (server, service) = boot();
    let addr = server.addr();
    let cases: &[(&[u8], u16, &str)] = &[
        (
            b"FLY /v1/recommend HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}",
            405,
            "unknown method on a known path",
        ),
        (b"GET /v1/nope HTTP/1.1\r\n\r\n", 404, "unknown path"),
        (b"GET /v1/recommend HTTP/1.1\r\n\r\n", 405, "wrong verb"),
        (b"total garbage\r\n\r\n", 400, "malformed request line"),
        (
            b"POST /v1/recommend HTTP/1.1\r\n\r\n",
            411,
            "missing content-length",
        ),
        (
            b"POST /v1/recommend HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n",
            413,
            "oversized declared body",
        ),
    ];
    for &(raw, want, what) in cases {
        let (status, body) = exchange(addr, raw);
        assert_eq!(status, want, "{what}: {body}");
        assert!(
            Json::parse(&body).unwrap().get("error").is_some(),
            "{what}: error body is typed JSON: {body}"
        );
    }
    let json_cases = [
        ("/v1/recommend", "notjson", 400, "unparseable JSON"),
        ("/v1/recommend", "{}", 400, "missing fields"),
        (
            "/v1/recommend",
            r#"{"stream":"nope","measure":"dup","budget":2}"#,
            404,
            "unknown stream",
        ),
        (
            "/v1/recommend",
            r#"{"stream":"crime","measure":"dup","strategy":"nope",1:2}"#,
            400,
            "bad JSON key",
        ),
        (
            "/v1/streams/crime/clean",
            r#"{"objects":[99],"revealed":[1.0]}"#,
            400,
            "out-of-range object",
        ),
        (
            "/v1/streams/crime/clean",
            r#"{"objects":[0,1],"revealed":[1.0]}"#,
            400,
            "objects/revealed length mismatch",
        ),
        (
            "/v1/streams/crime/clean",
            r#"{"objects":[3],"revealed":[1e400]}"#,
            400,
            "revealed value overflows to infinity",
        ),
        (
            "/v1/sweep",
            r#"{"stream":"crime","measure":"dup","budgets":[]}"#,
            400,
            "empty budget grid",
        ),
    ];
    for (path, json, want, what) in json_cases {
        let (status, body) = post(addr, path, json, None);
        assert_eq!(status, want, "{what}: {body}");
        assert!(
            Json::parse(&body).unwrap().get("error").is_some(),
            "{what}: error body is typed JSON: {body}"
        );
    }

    // Truncated headers: the client hangs up mid-request-line.
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(b"POST /v1/reco").unwrap();
        drop(sock); // half-finished request, connection gone
    }
    // Mid-body disconnect: declared 40 bytes, sent 10, then gone.
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(b"POST /v1/recommend HTTP/1.1\r\ncontent-length: 40\r\n\r\n{\"stream\":")
            .unwrap();
        drop(sock);
    }
    // Over-declared body, connection kept open: the server times the
    // stalled body read out as a typed 408.
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(b"POST /v1/recommend HTTP/1.1\r\ncontent-length: 40\r\n\r\n{\"stream\":")
            .unwrap();
        let (status, _) = client::read_response(&mut sock).expect("response");
        assert_eq!(status, 408, "stalled body read");
    }

    // Through all of that: nothing was submitted, nothing leaked, and
    // the listener still serves.
    assert_eq!(service.stats().submitted, 0);
    assert_eq!(
        service.quota_usage(&TenantId::default()),
        QuotaUsage::default()
    );
    let (status, _) = get(addr, "/v1/stats");
    assert_eq!(status, 200, "the listener survived the malformed barrage");
}

#[test]
fn quota_exhaustion_is_429_with_nothing_queued() {
    let (server, service) = boot();
    service.set_quota("capped", QuotaPolicy::default().with_max_in_flight(0));
    let (status, body) = post(
        server.addr(),
        "/v1/recommend",
        r#"{"stream":"crime","measure":"dup","budget":2}"#,
        Some("capped"),
    );
    assert_eq!(status, 429, "{body}");
    let stats = service.stats();
    assert_eq!(stats.quota_rejected, 1);
    assert_eq!(stats.submitted, 0, "rejected at the door, never queued");
}

#[test]
fn client_disconnect_cancels_the_in_flight_request() {
    let (server, service) = boot();
    // Submit a deliberately slow solve, then hang up mid-solve.
    let body = r#"{"stream":"crime","measure":"dup","strategy":"slow","budget":2}"#;
    let raw = format!(
        "POST /v1/recommend HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.write_all(raw.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // request is mid-solve
    drop(sock); // the checker walked away

    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().cancelled == 0 {
        assert!(
            Instant::now() < deadline,
            "disconnect did not cancel the request: {:?}",
            service.stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        service.quota_usage(&TenantId::default()),
        QuotaUsage::default(),
        "the cancelled request released its quota"
    );
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let (server, _service) = boot();
    let body = r#"{"stream":"crime","measure":"dup","budget":2}"#;
    let raw = format!(
        "POST /v1/recommend HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.write_all(raw.as_bytes()).unwrap();
    let (status, first) = client::read_response(&mut sock).expect("response");
    assert_eq!(status, 200);
    sock.write_all(raw.as_bytes()).unwrap();
    let (status, second) = client::read_response(&mut sock).expect("response");
    assert_eq!(status, 200);
    assert_eq!(served_identity(&first), served_identity(&second));
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let (server, service) = boot();
    let addr = server.addr();
    let expected = session()
        .recommend(ObjectiveSpec::ascertain(Measure::Dup), Budget::absolute(2))
        .unwrap();
    // A slow request in flight when shutdown lands must still complete
    // and deliver its plan.
    let client = std::thread::spawn(move || {
        post(
            addr,
            "/v1/recommend",
            r#"{"stream":"crime","measure":"dup","strategy":"slow","budget":2}"#,
            None,
        )
    });
    std::thread::sleep(Duration::from_millis(100)); // the request is in flight
    server.shutdown(); // blocks until drained
    let (status, body) = client.join().expect("client thread");
    assert_eq!(status, 200, "shutdown drained, not dropped: {body}");
    // The slow solver delegates to greedy; identity matches the
    // in-process greedy plan for the same spec, so no plan was lost.
    let expected_slow = {
        let got = Json::parse(&body).unwrap();
        let objects: Vec<usize> = got
            .get("objects")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_usize().unwrap())
            .collect();
        objects
    };
    assert!(!expected_slow.is_empty() || expected.selection.objects().is_empty());
    assert_eq!(service.stats().completed, service.stats().submitted);
    // The listener is gone: new connections are refused or reset.
    assert!(
        TcpStream::connect(addr)
            .map(|mut s| {
                let _ = s.write_all(b"GET /v1/stats HTTP/1.1\r\n\r\n");
                let mut buf = [0u8; 1];
                matches!(s.read(&mut buf), Ok(0) | Err(_))
            })
            .unwrap_or(true),
        "no new requests after shutdown"
    );
}

#[test]
fn stats_and_stream_listing_round_trip() {
    let (server, _service) = boot();
    let (status, body) = get(server.addr(), "/v1/streams");
    assert_eq!(status, 200);
    let streams = Json::parse(&body).unwrap();
    assert_eq!(
        streams.get("streams").and_then(Json::as_array),
        Some(&[Json::Str("crime".to_string())][..])
    );
    let (status, body) = get(server.addr(), "/v1/stats");
    assert_eq!(status, 200);
    let stats = Json::parse(&body).unwrap();
    assert!(stats.get("service").is_some() && stats.get("store").is_some());
    let service_obj = stats.get("service").unwrap();
    for gauge in [
        "queued_interactive",
        "queued_bulk",
        "in_flight",
        "running_interactive",
        "running_bulk",
    ] {
        assert!(
            service_obj.get(gauge).and_then(Json::as_u64).is_some(),
            "stats missing saturation gauge {gauge:?}: {body}"
        );
    }
    assert!(
        stats.get("tenants").is_some(),
        "stats missing tenants: {body}"
    );
    // plan_json is identity + diagnostics (compile-time sanity that the
    // public wire helpers agree).
    let plan = session()
        .recommend(ObjectiveSpec::ascertain(Measure::Dup), Budget::absolute(1))
        .unwrap();
    let full = plan_json(&plan).to_string();
    assert!(full.contains("\"diagnostics\""));
    assert!(full.starts_with(&identity(&plan)[..identity(&plan).len() - 1]));
}

#[test]
fn explicit_quota_tenants_appear_in_wire_stats() {
    let (server, service) = boot();
    service.set_quota(
        TenantId::new("alice"),
        QuotaPolicy::default().with_max_in_flight(3),
    );
    let (status, body) = get(server.addr(), "/v1/stats");
    assert_eq!(status, 200);
    let stats = Json::parse(&body).unwrap();
    let alice = stats
        .get("tenants")
        .and_then(|t| t.get("alice"))
        .unwrap_or_else(|| panic!("tenant alice missing from stats: {body}"));
    assert_eq!(alice.get("in_flight").and_then(Json::as_u64), Some(0));
    assert_eq!(
        alice.get("outstanding_evals").and_then(Json::as_u64),
        Some(0)
    );
}

#[test]
fn streamed_sweep_chunks_concatenate_to_the_buffered_body() {
    for body in [
        r#"{"stream":"crime","measure":"dup","budgets":[1,2,3,4]}"#,
        r#"{"stream":"crime","measure":"bias","goal":{"maxpr":5},"budgets":[1,3]}"#,
    ] {
        // Two fresh servers so both runs see a cold cache — the gate is
        // exact byte equality, diagnostics (store hits) included.
        let (buffered_server, _s1) = boot();
        let (streamed_server, _s2) = boot();
        let (status, buffered) = post(buffered_server.addr(), "/v1/sweep", body, None);
        assert_eq!(status, 200, "{buffered}");
        // `client::post` decodes the chunked response by concatenating
        // every chunk.
        let (status, streamed) = post(streamed_server.addr(), "/v1/sweep?stream=1", body, None);
        assert_eq!(status, 200, "{streamed}");
        assert_eq!(
            streamed, buffered,
            "concatenated chunks must reproduce the buffered response"
        );
    }
    // Refusals on the streamed path stay ordinary buffered typed 4xx.
    let (server, _service) = boot();
    let (status, body) = post(
        server.addr(),
        "/v1/sweep?stream=1",
        r#"{"stream":"nope","measure":"dup","budgets":[1]}"#,
        None,
    );
    assert_eq!(status, 404, "{body}");
    assert!(Json::parse(&body).unwrap().get("error").is_some());
}

/// A complete stream keeps its connection: a streamed sweep and then
/// a recommend on one client socket both answer, byte for byte as a
/// reference server answers the same two requests on connections of
/// their own.
#[test]
fn a_streamed_sweep_then_a_recommend_share_one_connection() {
    let sweep = r#"{"stream":"crime","measure":"dup","budgets":[1,2,3]}"#;
    let recommend = r#"{"stream":"crime","measure":"dup","budget":2}"#;
    let (reference, _s1) = boot();
    let expected = [
        post(reference.addr(), "/v1/sweep", sweep, None),
        post(reference.addr(), "/v1/recommend", recommend, None),
    ];
    let (server, _s2) = boot();
    let mut conn = client::Conn::connect(server.addr(), Some(Duration::from_secs(10))).unwrap();
    let streamed = conn
        .send("POST", "/v1/sweep?stream=1", &[], sweep)
        .expect("streamed sweep");
    assert!(conn.reusable(), "a complete stream leaves the socket open");
    // `Conn` never reconnects: this answer rides the sweep's socket.
    let next = conn
        .send("POST", "/v1/recommend", &[], recommend)
        .expect("recommend after the stream");
    assert_eq!([streamed, next], expected);
}

#[test]
fn streamed_sweep_delivers_the_first_point_while_later_points_solve() {
    let (server, service) = boot_sequential(Duration::from_millis(300));
    let api = ApiClient::connect(server.addr()).expect("connect");
    let request = SweepRequest {
        stream: "crime".into(),
        spec: ObjectiveSpec::ascertain(Measure::Dup).with_strategy("slow"),
        budgets: (1..=3).map(BudgetSpec::Absolute).collect(),
    };
    let mut stream = api.sweep_streaming(&request, None).expect("open stream");
    let first = stream
        .next()
        .expect("a first point")
        .expect("first point decodes");
    // One worker, 300ms per point: when the first plan is in hand the
    // sweep has not folded — its later points are still solving.
    assert_eq!(
        service.stats().completed,
        0,
        "first point arrived before the sweep resolved"
    );
    let rest: Vec<_> = stream.map(|p| p.expect("streamed point")).collect();
    assert_eq!(rest.len(), 2, "remaining budget points all arrive");
    assert_eq!(
        service.stats().completed,
        1,
        "a fully drained streamed sweep counts as completed"
    );
    // Budgets ascend; spent cost is monotone across the grid.
    let mut costs = vec![first.cost];
    costs.extend(rest.iter().map(|p| p.cost));
    assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
}

#[test]
fn mid_stream_disconnect_cancels_the_remaining_points() {
    let (server, service) = boot_sequential(Duration::from_millis(300));
    let body = r#"{"stream":"crime","measure":"dup","strategy":"slow","budgets":[1,2,3,4]}"#;
    let raw = format!(
        "POST /v1/sweep?stream=1 HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.write_all(raw.as_bytes()).unwrap();
    // Read the response head (proof the stream started), then walk away
    // mid-stream.
    let mut buf = [0u8; 32];
    let n = sock.read(&mut buf).unwrap();
    assert!(n > 0, "stream head arrived");
    drop(sock);
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().cancelled == 0 {
        assert!(
            Instant::now() < deadline,
            "mid-stream disconnect did not cancel the sweep: {:?}",
            service.stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A `crime` dup sweep over budgets `1..=points`, on `strategy`.
fn crime_sweep(strategy: &str, points: u64) -> SweepRequest {
    SweepRequest {
        stream: "crime".into(),
        spec: ObjectiveSpec::ascertain(Measure::Dup).with_strategy(strategy),
        budgets: (1..=points).map(BudgetSpec::Absolute).collect(),
    }
}

/// Opens a streamed sweep by address and reads it to its end.
fn drain_open(addr: SocketAddr, request: &SweepRequest) -> Vec<PlanView> {
    SweepStream::open(addr, Some(Duration::from_secs(10)), request, None)
        .expect("open stream")
        .map(|point| point.expect("streamed point"))
        .collect()
}

#[test]
fn complete_streams_opened_by_address_share_one_connection() {
    let (server, _service) = boot();
    let (proxy, dialed) = sweep_connection_counter(server.addr());
    let request = crime_sweep("greedy", 3);
    let first = drain_open(proxy, &request);
    let second = drain_open(proxy, &request);
    assert_eq!(first.len(), 3);
    assert_eq!(second.len(), 3);
    assert_eq!(
        dialed.load(Ordering::SeqCst),
        1,
        "the second stream rides the connection the first parked"
    );
}

#[test]
fn client_streams_ride_its_pool() {
    let (server, _service) = boot();
    let (proxy, dialed) = sweep_connection_counter(server.addr());
    let api = ApiClient::connect(proxy).expect("connect");
    let request = crime_sweep("greedy", 3);
    for _ in 0..2 {
        let points: Vec<_> = api
            .sweep_streaming(&request, None)
            .expect("open stream")
            .map(|point| point.expect("streamed point"))
            .collect();
        assert_eq!(points.len(), 3);
    }
    assert_eq!(dialed.load(Ordering::SeqCst), 1);
    assert_eq!(api.pool().idle_connections(), 1, "parked after the end");
    // A refusal is a complete response too: it parks the connection.
    let refused = api.sweep_streaming(
        &SweepRequest {
            stream: "nope".into(),
            ..request
        },
        None,
    );
    assert!(matches!(refused, Err(ClientError::Api(ref e)) if e.status == 404));
    assert_eq!(api.pool().idle_connections(), 1);
    assert_eq!(dialed.load(Ordering::SeqCst), 1);
}

#[test]
fn a_stream_dropped_mid_way_cancels_and_is_not_reused() {
    let (server, service) = boot_sequential(Duration::from_millis(300));
    let (proxy, dialed) = sweep_connection_counter(server.addr());
    let mut stream = SweepStream::open(
        proxy,
        Some(Duration::from_secs(10)),
        &crime_sweep("slow", 4),
        None,
    )
    .expect("open stream");
    stream
        .next()
        .expect("a first point")
        .expect("first point decodes");
    drop(stream);
    wait_for("the cancel", || service.stats().cancelled >= 1);
    // The abandoned connection was closed, not parked: the next stream
    // dials afresh and reads a whole stream, not the leftover points.
    let points = drain_open(proxy, &crime_sweep("greedy", 2));
    assert_eq!(points.len(), 2);
    assert_eq!(dialed.load(Ordering::SeqCst), 2);
}

#[test]
fn a_parked_connection_the_server_reaped_is_retried_unseen() {
    let (server, _service) = boot();
    let (proxy, dialed) = sweep_connection_counter(server.addr());
    let request = crime_sweep("greedy", 2);
    assert_eq!(drain_open(proxy, &request).len(), 2);
    // Past `test_config`'s 300 ms read timeout the server has closed
    // the parked connection.
    std::thread::sleep(Duration::from_millis(600));
    assert_eq!(drain_open(proxy, &request).len(), 2);
    assert_eq!(dialed.load(Ordering::SeqCst), 2, "the retry dialed afresh");
}

#[test]
fn shutdown_closes_idle_keep_alive_connections_and_answers_in_flight_ones() {
    // A keep-alive window far past the assertions below: only closing
    // the idle connection lets shutdown return in time.
    let (server, _service) = boot_with(
        registry_with_slow(Duration::from_millis(400)),
        ServerConfig::new().with_read_timeout(Duration::from_secs(5)),
    );
    let addr = server.addr();
    let recommend = RecommendRequest {
        stream: "crime".into(),
        spec: ObjectiveSpec::ascertain(Measure::Dup),
        budget: BudgetSpec::Absolute(2),
    };
    let idle = ApiClient::connect(addr).expect("connect");
    idle.recommend(&recommend, None).expect("recommend");
    assert_eq!(idle.pool().idle_connections(), 1);
    let slow = RecommendRequest {
        spec: recommend.spec.clone().with_strategy("slow"),
        ..recommend.clone()
    };
    let in_flight = std::thread::spawn(move || {
        ApiClient::connect(addr)
            .expect("connect")
            .recommend(&slow, None)
    });
    std::thread::sleep(Duration::from_millis(100)); // the slow solve is running
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    in_flight
        .join()
        .expect("client thread")
        .expect("the in-flight request is answered");
    // The pooled connection is closed and the listener gone: the next
    // request fails as a transport error rather than hanging.
    let started = Instant::now();
    let after = idle.recommend(&recommend, None);
    assert!(matches!(after, Err(ClientError::Io(_))), "{after:?}");
    assert!(started.elapsed() < Duration::from_secs(1));
}

/// Parks every solve after the first until the gate opens (or 10 s
/// pass, so a failing test still shuts its server down), then delegates
/// to greedy; counts solves and parked solves.
#[derive(Debug, Default)]
struct Gate {
    calls: AtomicUsize,
    parked: AtomicUsize,
    open: AtomicBool,
}

struct GatedSolver {
    delegate: Arc<dyn Solver>,
    gate: Arc<Gate>,
}

impl Solver for GatedSolver {
    fn name(&self) -> &'static str {
        "gated"
    }
    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> CoreResult<Plan> {
        if self.gate.calls.fetch_add(1, Ordering::SeqCst) > 0 {
            self.gate.parked.fetch_add(1, Ordering::SeqCst);
            let parked = Instant::now();
            while !self.gate.open.load(Ordering::SeqCst)
                && parked.elapsed() < Duration::from_secs(10)
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        self.delegate.solve_with_cache(problem, budget, cache)
    }
}

/// A server whose service routes every request to the inline lane,
/// with the `"gated"` strategy registered.
fn boot_inline_gated() -> (ServerHandle, PlannerService, Arc<Gate>) {
    let gate = Arc::new(Gate::default());
    let mut registry = SolverRegistry::with_defaults();
    let delegate = registry.get("greedy").unwrap();
    registry.register_solver(Arc::new(GatedSolver {
        delegate,
        gate: Arc::clone(&gate),
    }));
    let service = PlannerService::new(
        Arc::new(registry),
        ServiceOptions::new().with_inline_threshold(u64::MAX),
    );
    let (server, service) = boot_service(service, test_config());
    (server, service, gate)
}

/// Spins until `done()` holds, failing after 10 s with `what`.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn inline_streamed_sweep_sends_its_first_point_before_solving_the_second() {
    let body = r#"{"stream":"crime","measure":"dup","strategy":"gated","budgets":[1,2,3,4]}"#;
    let raw = format!(
        "POST /v1/sweep?stream=1 HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let (reference, _s0, open) = boot_inline_gated();
    open.open.store(true, Ordering::SeqCst);
    let (status, buffered) = post(reference.addr(), "/v1/sweep", body, None);
    assert_eq!(status, 200, "{buffered}");
    let first_plan = match Json::parse(&buffered).unwrap().get("plans") {
        Some(Json::Arr(plans)) => plans[0].to_string(),
        other => panic!("no plans in {other:?}"),
    };
    // Sends the streamed sweep and waits until point 1 is parked in its
    // solve with point 0 already on the wire (peeked, not consumed).
    let start = |addr: SocketAddr, gate: &Gate| {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(raw.as_bytes()).unwrap();
        wait_for("point 1's solve", || {
            gate.parked.load(Ordering::SeqCst) == 1
        });
        sock.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut buf = vec![0u8; 1 << 16];
        wait_for("point 0 on the wire", || match sock.peek(&mut buf) {
            Ok(n) => String::from_utf8_lossy(&buf[..n]).contains(&first_plan),
            Err(_) => false,
        });
        sock.set_read_timeout(None).unwrap();
        sock
    };

    // Point 0 arrives while point 1 is blocked; the chunks still
    // concatenate to the buffered body.
    let (server, service, gate) = boot_inline_gated();
    let mut sock = start(server.addr(), &gate);
    assert_eq!(gate.calls.load(Ordering::SeqCst), 2);
    assert_eq!(service.stats().completed, 0, "the sweep has not settled");
    gate.open.store(true, Ordering::SeqCst);
    let (status, streamed) = client::read_response(&mut sock).unwrap();
    assert_eq!(status, 200, "{streamed}");
    assert_eq!(
        streamed, buffered,
        "chunks concatenate to the buffered body"
    );
    let stats = service.stats();
    assert_eq!((stats.inline, stats.completed), (1, 1));

    // A hangup after point 0 leaves the points after the one solving
    // unsolved, and cancels the sweep.
    let (server, service, gate) = boot_inline_gated();
    drop(start(server.addr(), &gate));
    gate.open.store(true, Ordering::SeqCst);
    wait_for("the cancel", || service.stats().cancelled == 1);
    assert_eq!(
        gate.calls.load(Ordering::SeqCst),
        2,
        "points 2 and 3 unsolved"
    );
    assert_eq!(service.stats().completed, 0);
}

#[test]
fn wire_created_streams_solve_describe_and_delete() {
    let (server, _service) = boot();
    let addr = server.addr();
    let api = ApiClient::connect(addr).expect("connect");
    let base = session();
    let request = CreateStreamRequest {
        id: "wire".into(),
        tenant: Some("newsroom".into()),
        theta: None,
        discretize_support: None,
        data: base.data().clone(),
        claims: base.claims().clone(),
    };
    let info = api.create_stream(&request).expect("create stream");
    assert_eq!(
        (info.id.as_str(), info.model.as_str(), info.objects),
        ("wire", "discrete", 5)
    );
    assert_eq!(info.tenant, "newsroom");

    // Duplicate ids conflict instead of silently replacing state.
    match api.create_stream(&request) {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 409, "{}", e.message),
        other => panic!("duplicate create must 409, got {other:?}"),
    }

    // The created stream serves plans byte-identical to the boot-time
    // stream over the same dataset.
    let (status, on_crime) = post(
        addr,
        "/v1/recommend",
        r#"{"stream":"crime","measure":"dup","budget":2}"#,
        None,
    );
    assert_eq!(status, 200, "{on_crime}");
    let (status, on_wire) = post(
        addr,
        "/v1/recommend",
        r#"{"stream":"wire","measure":"dup","budget":2}"#,
        None,
    );
    assert_eq!(status, 200, "{on_wire}");
    assert_eq!(served_identity(&on_wire), served_identity(&on_crime));

    // Listed, describable, and the description round-trips the 201 body.
    let mut streams = api.streams().expect("list");
    streams.sort();
    assert_eq!(streams, vec!["crime".to_string(), "wire".to_string()]);
    assert_eq!(api.stream_info("wire").expect("describe"), info);

    // Delete: gone for describes and solves alike; a second delete 404s.
    api.delete_stream("wire").expect("delete");
    match api.stream_info("wire") {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 404),
        other => panic!("deleted stream must 404, got {other:?}"),
    }
    let (status, body) = post(
        addr,
        "/v1/recommend",
        r#"{"stream":"wire","measure":"dup","budget":2}"#,
        None,
    );
    assert_eq!(status, 404, "{body}");
    match api.delete_stream("wire") {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 404),
        other => panic!("double delete must 404, got {other:?}"),
    }

    // Re-creating after delete works (the id is free again).
    api.create_stream(&request).expect("recreate after delete");
}

/// An oversized `discretize_support` is refused when the stream is
/// created: the first dup read would otherwise allocate that many
/// support points per object, and an allocation failure aborts the
/// process. The server keeps creating and serving streams.
#[test]
fn oversized_discretize_support_is_refused_and_the_server_survives() {
    let (server, _service) = boot_empty();
    let api = ApiClient::connect(server.addr()).expect("connect");
    let current = vec![9_010.0, 9_275.0, 9_300.0, 9_125.0, 9_430.0];
    let gaussian = |id: &str, support: usize| CreateStreamRequest {
        id: id.into(),
        tenant: None,
        theta: None,
        discretize_support: Some(support),
        data: DataModel::Gaussian(
            GaussianInstance::independent(current.clone(), &[40.0; 5], current.clone(), vec![1; 5])
                .expect("independent Gaussian"),
        ),
        claims: session().claims().clone(),
    };
    for support in [MAX_DISCRETIZE_SUPPORT + 1, 10_000_000_000_000] {
        match api.create_stream(&gaussian("huge", support)) {
            Err(ClientError::Api(e)) => {
                assert_eq!(e.status, 400, "{support}: {}", e.message);
                assert!(e.message.contains("discretize_support"), "{}", e.message);
            }
            other => panic!("support {support} must be refused, got {other:?}"),
        }
    }
    match api.stream_info("huge") {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 404),
        other => panic!("a refused create must not install, got {other:?}"),
    }

    api.create_stream(&gaussian("gauss", 6))
        .expect("create within the cap");
    let (status, body) = post(
        server.addr(),
        "/v1/recommend",
        r#"{"stream":"gauss","measure":"dup","budget":2}"#,
        None,
    );
    assert_eq!(status, 200, "{body}");
}

/// A peer server with an empty stream registry — the adoption target
/// in the replication tests.
fn boot_empty() -> (ServerHandle, PlannerService) {
    let service = PlannerService::new(
        registry_with_slow(Duration::from_millis(400)),
        ServiceOptions::new().with_inline_threshold(0),
    );
    let handle = PlannerServer::new(service.clone())
        .with_config(test_config())
        .serve("127.0.0.1:0")
        .expect("bind ephemeral port");
    (handle, service)
}

/// The `store_misses` diagnostic of a served plan body.
fn served_store_misses(body: &str) -> u64 {
    Json::parse(body)
        .expect("plan JSON")
        .get("diagnostics")
        .and_then(|d| d.get("store_misses"))
        .and_then(Json::as_u64)
        .expect("plan diagnostics carry store_misses")
}

/// Whether a health body lists `id` among the streams it hosts.
fn health_hosts(body: &str, id: &str) -> bool {
    Json::parse(body)
        .expect("health JSON")
        .get("streams")
        .and_then(Json::as_array)
        .expect("health reports per-stream residency")
        .iter()
        .any(|s| s.get("id").and_then(Json::as_str) == Some(id))
}

/// The replication lifecycle: snapshot a stream's definition off one
/// host, adopt it on a peer that never saw the dataset, and have the
/// peer serve byte-identical plans — the no recreate-round-trip path a
/// replica failover takes. The peer builds its own tables on its first
/// read and serves the repeat warm.
#[test]
fn stream_snapshot_adopts_onto_a_peer_and_serves_warm() {
    let (host_a, _service_a) = boot();
    let (host_b, _service_b) = boot_empty();
    let api_a = ApiClient::connect(host_a.addr()).expect("connect a");
    let api_b = ApiClient::connect(host_b.addr()).expect("connect b");

    let recommend = r#"{"stream":"crime","measure":"dup","budget":2}"#;
    let (status, on_a) = post(host_a.addr(), "/v1/recommend", recommend, None);
    assert_eq!(status, 200, "{on_a}");

    // Snapshot: the stream's definition, one body.
    let definition = api_a.snapshot("crime").expect("snapshot");
    assert_eq!(definition.id, "crime");
    match api_a.snapshot("nope") {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 404),
        other => panic!("unknown stream snapshot must 404, got {other:?}"),
    }

    // Adopt on the peer: no dataset upload, the vacant id installs.
    let body = definition.encode().expect("wire definition");
    let (status, text) = post(host_b.addr(), "/v1/streams/crime/adopt", &body, None);
    assert_eq!(status, 201, "{text}");
    assert_eq!(api_b.streams().expect("list"), vec!["crime".to_string()]);
    let (status, health_b) = get(host_b.addr(), "/v1/health");
    assert_eq!(status, 200, "{health_b}");
    assert!(health_hosts(&health_b, "crime"), "{health_b}");

    // The peer serves the same plan bytes: the first read builds its
    // tables, the repeat is served warm.
    let (status, on_b) = post(host_b.addr(), "/v1/recommend", recommend, None);
    assert_eq!(status, 200, "{on_b}");
    assert_eq!(served_identity(&on_b), served_identity(&on_a));
    assert!(
        served_store_misses(&on_b) > 0,
        "first read rebuilds: {on_b}"
    );
    let (status, again) = post(host_b.addr(), "/v1/recommend", recommend, None);
    assert_eq!(status, 200, "{again}");
    assert_eq!(served_identity(&again), served_identity(&on_a));
    assert_eq!(served_store_misses(&again), 0, "repeat is warm: {again}");

    // Re-adopting the same definition is idempotent (200), not a
    // conflict.
    let (status, text) = post(host_b.addr(), "/v1/streams/crime/adopt", &body, None);
    assert_eq!(status, 200, "{text}");
    assert!(api_b.adopt("crime", &definition).expect("idempotent adopt"));

    // Occupied id + different definition: refused with a 409 naming
    // the field, and the resident stream is untouched.
    let mut altered = definition.clone();
    altered.theta = Some(definition.theta.unwrap() + 25.0);
    match api_b.adopt("crime", &altered) {
        Err(ClientError::Api(e)) => {
            assert_eq!(e.status, 409, "{}", e.message);
            assert!(e.message.contains("fields: theta"), "{}", e.message);
        }
        other => panic!("conflicting adopt must 409, got {other:?}"),
    }
    assert_eq!(
        api_b.stream_info("crime").expect("still resident").id,
        "crime"
    );

    // Path/definition id mismatch is a 400 before anything installs.
    match api_b.adopt("other", &definition) {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 400, "{}", e.message),
        other => panic!("id mismatch must 400, got {other:?}"),
    }
    match api_b.stream_info("other") {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 404),
        other => panic!("mismatched adopt must not install, got {other:?}"),
    }
}

/// Replication hops are fixed points: a wire-created cdc stream
/// (6-point discretization, window-2 sums — a claim family whose
/// normalized sensibilities used to move their last bits on every
/// decode) snapshotted A → B → C carries its exact definition, so adopting
/// C's snapshot back onto A is an idempotent merge (200), not a
/// `409 … different definition`, all three hosts pick the same MaxPr
/// plans as the in-process session, and they answer byte-identical
/// plans at every budget.
#[test]
fn snapshot_hops_keep_the_definition_and_the_maxpr_plans() {
    let hosts = [boot_empty(), boot_empty(), boot_empty()];
    let apis: Vec<ApiClient> = hosts
        .iter()
        .map(|(host, _)| ApiClient::connect(host.addr()).expect("connect"))
        .collect();
    let spec = ObjectiveSpec::find_counter(5.0);
    let fractions = [0.1, 0.2, 0.3, 0.4, 0.5];
    for seed in 0..6 {
        let cdc = cdc_firearms_gaussian(seed).and_then(|g| g.discretize(6));
        let base = window_session(&cdc.expect("cdc instance"), 2);
        let id = format!("cdc{seed}");
        apis[0]
            .create_stream(&CreateStreamRequest {
                id: id.clone(),
                tenant: None,
                theta: None,
                discretize_support: None,
                data: base.data().clone(),
                claims: base.claims().clone(),
            })
            .expect("create on A");
        let a_to_b = apis[0].snapshot(&id).expect("snapshot A");
        assert!(!apis[1].adopt(&id, &a_to_b).expect("adopt on B"));
        let b_to_c = apis[1].snapshot(&id).expect("snapshot B");
        assert!(!apis[2].adopt(&id, &b_to_c).expect("adopt on C"));
        let c_to_a = apis[2].snapshot(&id).expect("snapshot C");
        assert_eq!(c_to_a, a_to_b, "seed {seed}");
        match apis[0].adopt(&id, &c_to_a) {
            Ok(merged) => assert!(merged, "seed {seed}"),
            Err(e) => panic!("seed {seed}: re-adopting C's snapshot onto A must merge: {e:?}"),
        }

        let total = base.data().total_cost();
        let budgets: Vec<Budget> = fractions
            .iter()
            .map(|&f| Budget::fraction(total, f))
            .collect();
        let expected: Vec<Vec<usize>> = base
            .recommend_sweep(&spec, &budgets)
            .expect("in-process sweep")
            .iter()
            .map(|plan| plan.selection.objects().to_vec())
            .collect();
        let request = SweepRequest {
            stream: id.clone(),
            spec: spec.clone(),
            budgets: fractions.iter().map(|&f| BudgetSpec::Fraction(f)).collect(),
        };
        let mut identities_on_a = None;
        for (host, api) in ["A", "B", "C"].iter().zip(&apis) {
            let plans = api.sweep(&request, None).expect("sweep");
            let picks: Vec<Vec<usize>> = plans.iter().map(|plan| plan.objects.clone()).collect();
            assert_eq!(picks, expected, "seed {seed}: host {host}");
            let identities: Vec<String> = plans
                .iter()
                .map(|plan| plan.identity_json().to_string())
                .collect();
            assert_eq!(
                &identities,
                identities_on_a.get_or_insert_with(|| identities.clone()),
                "seed {seed}: host {host} against A"
            );
        }
    }
}

/// Regression for the saturation path: at `max_connections`, refused
/// clients get a prompt `503` — written off the accept thread, so a
/// refused client that never reads cannot stall later accepts — and
/// once the in-flight request finishes the slot is free again (no
/// leak: shutdown drains instead of hanging).
#[test]
fn saturated_server_refuses_promptly_and_recovers() {
    let (server, service) = boot_with(
        registry_with_slow(Duration::from_millis(1500)),
        test_config().with_max_connections(1),
    );
    let addr = server.addr();
    // Occupy the single slot with a slow in-flight solve.
    let holder = std::thread::spawn(move || {
        post(
            addr,
            "/v1/recommend",
            r#"{"stream":"crime","measure":"dup","strategy":"slow","budget":2}"#,
            None,
        )
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.stats().submitted == 0 {
        assert!(Instant::now() < deadline, "slow request never arrived");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Refused clients that never read their 503 linger while further
    // refusals happen — the 503 storm case.
    let silent: Vec<TcpStream> = (0..3)
        .filter_map(|_| TcpStream::connect(addr).ok())
        .collect();
    for i in 0..3 {
        let started = Instant::now();
        let mut sock = TcpStream::connect(addr).expect("connect while saturated");
        sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let (status, body) = client::read_response(&mut sock).expect("refusal response");
        assert_eq!(status, 503, "refusal {i}: {body}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "refusal {i} was not prompt: {:?}",
            started.elapsed()
        );
    }
    drop(silent);

    // The in-flight request is unaffected by the storm…
    let (status, body) = holder.join().expect("holder thread");
    assert_eq!(status, 200, "in-flight request failed: {body}");
    // …and its slot is free again for new work. The holder's 200 only
    // proves its response was written; the server frees the slot when
    // it notices the closed connection, so retry through that window
    // (refusals or resets while it closes are expected — a *leaked*
    // slot keeps this failing until the deadline).
    let deadline = Instant::now() + Duration::from_secs(5);
    let (status, body) = loop {
        let attempt = client::post(
            addr,
            "/v1/recommend",
            r#"{"stream":"crime","measure":"dup","budget":2}"#,
            &[],
        );
        match attempt {
            Ok((503, _)) | Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(response) => break response,
            Err(e) => panic!("post-recovery request kept failing: {e}"),
        }
    };
    assert_eq!(status, 200, "post-recovery request failed: {body}");
    // A leaked slot would wedge the drain here.
    server.shutdown();
}
