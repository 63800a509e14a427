//! Integration tests for the HTTP/1.1 network front: byte-identity
//! with in-process plans, the full malformed-input matrix (each bad
//! request yields a typed 4xx — or a cancelled request — without
//! tearing down the listener or leaking quota), disconnect-driven
//! cancellation, keep-alive, graceful-shutdown drain, snapshot →
//! adopt hops that keep a stream's definition bit for bit, and the
//! whole-store snapshot a graceful shutdown leaves for a warm restart.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fact_clean::net::api::{
    plan_identity_json, plan_json, BudgetSpec, CreateStreamRequest, SweepRequest,
};
use fact_clean::net::client::{self, ApiClient, ClientError};
use fact_clean::net::json::Json;
use fact_clean::net::{PlannerServer, ServerConfig, ServerHandle};
use fact_clean::prelude::*;
use fc_core::{SolverRegistry, WorkerPool};
use fc_datasets::cdc::cdc_firearms_gaussian;

mod common;
use common::{registry_with_slow, session, window_session};

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

/// The `warm_entries` residency reported for `id` in a health body.
fn health_warm_entries(body: &str, id: &str) -> Option<u64> {
    Json::parse(body)
        .expect("health JSON")
        .get("streams")
        .and_then(Json::as_array)
        .expect("health reports per-stream residency")
        .iter()
        .find(|s| s.get("id").and_then(Json::as_str) == Some(id))
        .map(|s| {
            s.get("warm_entries")
                .and_then(Json::as_u64)
                .expect("residency carries warm_entries")
        })
}

/// The tentpole lifecycle: snapshot a warm stream off one host, adopt
/// it on a peer that never saw the dataset, and have the peer serve
/// byte-identical plans fully warm (`store_misses == 0`) — the no
/// recreate-round-trip path a replica failover takes.
#[test]
fn stream_snapshot_adopts_onto_a_peer_and_serves_warm() {
    let (host_a, _service_a) = boot();
    let (host_b, _service_b) = boot_empty();
    let api_a = ApiClient::connect(host_a.addr()).expect("connect a");
    let api_b = ApiClient::connect(host_b.addr()).expect("connect b");

    // Warm the donor, then check its residency shows up in health.
    let recommend = r#"{"stream":"crime","measure":"dup","budget":2}"#;
    let (status, on_a) = post(host_a.addr(), "/v1/recommend", recommend, None);
    assert_eq!(status, 200, "{on_a}");
    let (status, health_a) = get(host_a.addr(), "/v1/health");
    assert_eq!(status, 200, "{health_a}");
    let warm_a = health_warm_entries(&health_a, "crime").expect("donor hosts crime");
    assert!(warm_a >= 1, "solved stream must report warm entries");

    // Snapshot: definition plus the stream's warm slice, one body.
    let transfer = api_a.snapshot("crime").expect("snapshot");
    assert_eq!(transfer.definition.id, "crime");
    assert!(
        transfer.warm_entries >= 1 && !transfer.cache_slice.is_empty(),
        "snapshot of a solved stream must carry warm entries"
    );
    match api_a.snapshot("nope") {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 404),
        other => panic!("unknown stream snapshot must 404, got {other:?}"),
    }

    // Adopt on the peer: no dataset upload, stream installed + warm.
    let restored = api_b.adopt("crime", &transfer).expect("adopt");
    assert_eq!(restored, transfer.warm_entries, "whole slice restores");
    assert_eq!(api_b.streams().expect("list"), vec!["crime".to_string()]);
    let (status, health_b) = get(host_b.addr(), "/v1/health");
    assert_eq!(status, 200, "{health_b}");
    assert_eq!(
        health_warm_entries(&health_b, "crime"),
        Some(restored as u64),
        "adopted residency must be visible before any solve"
    );

    // The peer serves the same plan bytes without a single store miss.
    let (status, on_b) = post(host_b.addr(), "/v1/recommend", recommend, None);
    assert_eq!(status, 200, "{on_b}");
    assert_eq!(served_identity(&on_b), served_identity(&on_a));
    assert_eq!(
        served_store_misses(&on_b),
        0,
        "adopted replica must serve fully warm: {on_b}"
    );

    // Re-adopting the same definition is an idempotent merge (200),
    // not a conflict — the repair pass leans on this to re-warm. Every
    // entry is already resident, so nothing fresh installs.
    let merged = api_b.adopt("crime", &transfer).expect("idempotent adopt");
    assert_eq!(merged, 0, "merge onto a warm replica installs nothing new");

    // Occupied id + different definition: refused with 409, and the
    // resident stream is untouched.
    let mut altered = transfer.clone();
    altered.definition.theta = Some(transfer.definition.theta.unwrap() + 25.0);
    altered.cache_slice.clear();
    altered.warm_entries = 0;
    match api_b.adopt("crime", &altered) {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 409, "{}", e.message),
        other => panic!("conflicting adopt must 409, got {other:?}"),
    }
    assert_eq!(
        api_b.stream_info("crime").expect("still resident").id,
        "crime"
    );

    // Path/definition id mismatch is a 400 before anything installs.
    match api_b.adopt("other", &transfer) {
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
/// `409 … different definition`, and all three hosts pick the same
/// MaxPr plans as the in-process session.
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
        apis[1].adopt(&id, &a_to_b).expect("adopt on B");
        let b_to_c = apis[1].snapshot(&id).expect("snapshot B");
        apis[2].adopt(&id, &b_to_c).expect("adopt on C");
        let c_to_a = apis[2].snapshot(&id).expect("snapshot C");
        assert_eq!(c_to_a.definition, a_to_b.definition, "seed {seed}");
        if let Err(e) = apis[0].adopt(&id, &c_to_a) {
            panic!("seed {seed}: re-adopting C's snapshot onto A must merge: {e:?}");
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
        for (host, api) in ["A", "B", "C"].iter().zip(&apis) {
            let picks: Vec<Vec<usize>> = api
                .sweep(&request, None)
                .expect("sweep")
                .into_iter()
                .map(|plan| plan.objects)
                .collect();
            assert_eq!(picks, expected, "seed {seed}: host {host}");
        }
    }
}

/// Whole-store snapshot lifecycle: a server booted with a snapshot
/// path persists its settled store on graceful shutdown, and a
/// successor booted on the same path reports the restored entries in
/// `/v1/health` and serves its first repeat request fully warm, plan
/// bytes unchanged.
#[test]
fn graceful_shutdown_snapshot_boots_the_successor_warm() {
    let dir = std::env::temp_dir().join(format!("fc-net-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("snapshot dir");
    let path = dir.join("store.fcsnap");
    let boot_snapshotting = || {
        boot_with(
            registry_with_slow(Duration::from_millis(400)),
            test_config().with_snapshot_path(&path),
        )
    };
    let restored = |addr| {
        let (status, body) = get(addr, "/v1/health");
        assert_eq!(status, 200, "{body}");
        Json::parse(&body)
            .unwrap()
            .get("restored_entries")
            .and_then(Json::as_u64)
            .expect("health reports restored_entries")
    };
    let recommend = r#"{"stream":"crime","measure":"dup","budget":2}"#;

    let (first, _service) = boot_snapshotting();
    assert_eq!(restored(first.addr()), 0, "no snapshot yet: a cold boot");
    let (status, cold) = post(first.addr(), "/v1/recommend", recommend, None);
    assert_eq!(status, 200, "{cold}");
    assert!(served_store_misses(&cold) > 0, "the first solve is cold");
    first.shutdown(); // persists the settled store

    let (successor, _service) = boot_snapshotting();
    assert!(restored(successor.addr()) > 0, "the successor boots warm");
    let (status, warm) = post(successor.addr(), "/v1/recommend", recommend, None);
    assert_eq!(status, 200, "{warm}");
    assert_eq!(served_store_misses(&warm), 0, "first repeat is fully warm");
    assert_eq!(served_identity(&warm), served_identity(&cold));
    successor.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
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
