//! Integration tests for the consistent-hash routing front: topology
//! and health reporting, canonical error relay (the router never
//! rewrites a backend's 4xx bytes) and plan byte-identity, operator and
//! backend-advertised drain, failover to the surviving replica (dead
//! at boot or killed mid-run), fleet-wide 503 when no backend is
//! reachable, clean broadcast (unanimous, divergent, and post-clean
//! identity with a single box), aggregated stats, streamed-sweep
//! passthrough (chunk relay is byte-preserving and client hangup
//! cancels upstream), and the wire-native stream lifecycle (create
//! routes onto the ring, a clean reaches only the stream's holders,
//! deletes broadcast, and a dead host's streams recreate on the next
//! replica), and the replication edge cases: deletes reach straggler
//! copies, tombstones keep deleted streams deleted across repair
//! passes, and divergent creates reconcile on identical leftover
//! copies. The edge
//! matrix of the connection front the router shares with the server
//! (`405`/`404`, typed framing errors, the saturation `503`) closes
//! the file.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fact_clean::net::api::{
    plan_identity_json, BudgetSpec, CleanRequest, CreateStreamRequest, RecommendRequest,
    SweepRequest,
};
use fact_clean::net::client::{self, ApiClient, ClientError, Conn, SweepStream};
use fact_clean::net::http;
use fact_clean::net::json::Json;
use fact_clean::net::router::VNODES;
use fact_clean::net::{PlannerServer, RouterConfig, RouterHandle, RouterServer, ServerHandle};
use fact_clean::prelude::*;
use fc_core::planner::Fnv1a;
use fc_core::{SolverRegistry, WorkerPool};

mod common;
use common::{registry_with_slow, session, session_over, sweep_connection_counter};

/// Boots one backend registering `session()` under each given stream
/// id. Shutdown closes idle keep-alive connections at once; the short
/// read timeout bounds what a drain still waits for (a connection left
/// mid-request) and lets parked handler threads exit soon after a test.
fn boot_backend(streams: &[&str]) -> (PlannerService, ServerHandle) {
    let service = PlannerService::new(
        Arc::new(SolverRegistry::with_defaults()),
        ServiceOptions::new(),
    );
    let mut server = PlannerServer::new(service.clone()).with_config(
        fact_clean::net::ServerConfig::new().with_read_timeout(Duration::from_millis(200)),
    );
    for id in streams {
        server = server.with_stream(*id, ClaimStream::open(session(), service.clone()));
    }
    let handle = server.serve("127.0.0.1:0").expect("bind backend");
    (service, handle)
}

/// Boots a backend whose `"slow"` strategy sleeps per point on a
/// single worker, so a relayed sweep is provably mid-flight when the
/// client walks away.
fn boot_slow_backend(delay: Duration) -> (PlannerService, ServerHandle) {
    let service = PlannerService::new(
        registry_with_slow(delay),
        ServiceOptions::new()
            .with_inline_threshold(0)
            .with_pool(Arc::new(WorkerPool::new(1))),
    );
    let server = PlannerServer::new(service.clone())
        .with_config(
            fact_clean::net::ServerConfig::new()
                .with_read_timeout(Duration::from_millis(200))
                .with_disconnect_poll(Duration::from_millis(10)),
        )
        .with_stream("crime", ClaimStream::open(session(), service.clone()));
    let handle = server.serve("127.0.0.1:0").expect("bind backend");
    (service, handle)
}

fn boot_router(backends: &[(&str, SocketAddr)]) -> RouterHandle {
    let mut router = RouterServer::new().with_config(
        RouterConfig::new()
            .with_probe_interval(Duration::from_millis(25))
            .with_read_timeout(Duration::from_millis(500)),
    );
    for (name, addr) in backends {
        router = router.with_backend(*name, addr.to_string());
    }
    router.serve("127.0.0.1:0").expect("bind router")
}

/// An address that was live long enough to resolve but refuses
/// connections now — a crashed backend as the router sees it.
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.local_addr().expect("addr")
}

/// A listener whose accept queue is full, so the kernel drops every
/// further SYN to it: a host that is down or firewalled, as a
/// connecting client sees it (the connect hangs rather than being
/// refused). Keep both halves alive while the address is in use.
#[cfg(target_os = "linux")]
fn syn_dropping_listener() -> (TcpListener, TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    // SAFETY: re-`listen`ing on a socket we own only shrinks its
    // backlog; with a backlog of 0 the queue holds one connection.
    assert_eq!(unsafe { listen(listener.as_raw_fd(), 0) }, 0);
    let filler = TcpStream::connect(listener.local_addr().unwrap()).expect("fill the queue");
    (listener, filler)
}

/// A fake backend holding stream `crime`: it answers its health probe
/// at once and every other request (a clean) after `delay` with
/// `status`, counting the cleans it answered. Each connection is served
/// on its own thread, keep-alive.
fn slow_clean_backend(delay: Duration, status: u16) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let addr = listener.local_addr().expect("fake backend addr");
    let cleans = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&cleans);
    std::thread::spawn(move || {
        for sock in listener.incoming() {
            let Ok(mut sock) = sock else { continue };
            let Ok(read_half) = sock.try_clone() else {
                continue;
            };
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                let mut reader = BufReader::new(read_half);
                while let Ok(request) = http::read_request(&mut reader, 1 << 16) {
                    let (status, body) = if request.path() == "/v1/health" {
                        (200, r#"{"ok":true,"streams":[{"id":"crime"}]}"#)
                    } else {
                        std::thread::sleep(delay);
                        counter.fetch_add(1, Ordering::SeqCst);
                        match status {
                            200 => (200, r#"{"invalidated":0,"objects":1}"#),
                            _ => (status, r#"{"error":"conflict"}"#),
                        }
                    };
                    if http::write_response(&mut sock, status, body, false).is_err() {
                        return;
                    }
                }
            });
        }
    });
    (addr, cleans)
}

fn crime_request() -> RecommendRequest {
    RecommendRequest {
        stream: "crime".to_string(),
        spec: ObjectiveSpec::ascertain(Measure::Dup),
        budget: BudgetSpec::Absolute(2),
    }
}

/// The mixed per-stream workload on `crime` — a dup recommend, a MaxPr
/// recommend and a frag sweep — as the identity bytes of each plan.
fn crime_workload(api: &ApiClient) -> Vec<String> {
    let maxpr = RecommendRequest {
        spec: ObjectiveSpec::find_counter(5.0),
        budget: BudgetSpec::Absolute(3),
        ..crime_request()
    };
    let frag = SweepRequest {
        stream: "crime".to_string(),
        spec: ObjectiveSpec::ascertain(Measure::Frag),
        budgets: vec![BudgetSpec::Absolute(2), BudgetSpec::Absolute(4)],
    };
    let mut plans = vec![
        api.recommend(&crime_request(), None).expect("dup plan"),
        api.recommend(&maxpr, None).expect("maxpr plan"),
    ];
    plans.extend(api.sweep(&frag, None).expect("frag sweep"));
    plans
        .iter()
        .map(|plan| plan.identity_json().to_string())
        .collect()
}

/// Polls `/v1/topology` until `predicate` holds for the named backend.
fn wait_for_backend(router: &RouterHandle, name: &str, predicate: impl Fn(&Json) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, body) = client::get(router.addr(), "/v1/topology").expect("topology");
        assert_eq!(status, 200, "topology errored: {body}");
        let json = Json::parse(&body).expect("topology JSON");
        let found = json
            .get("backends")
            .and_then(Json::as_array)
            .and_then(|backends| {
                backends
                    .iter()
                    .find(|b| b.get("name").and_then(Json::as_str) == Some(name))
            })
            .is_some_and(&predicate);
        if found {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "backend {name} never reached the expected state"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn topology_and_health_report_the_fleet() {
    let (_service_a, backend_a) = boot_backend(&["crime"]);
    let (_service_b, backend_b) = boot_backend(&["crime"]);
    let router = boot_router(&[("a", backend_a.addr()), ("b", backend_b.addr())]);

    let (status, body) = client::get(router.addr(), "/v1/topology").expect("topology");
    assert_eq!(status, 200);
    let json = Json::parse(&body).expect("topology JSON");
    assert!(
        json.get("vnodes_per_backend")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    let backends = json.get("backends").and_then(Json::as_array).expect("list");
    assert_eq!(backends.len(), 2);
    for backend in backends {
        assert_eq!(backend.get("healthy").and_then(Json::as_bool), Some(true));
        assert_eq!(backend.get("draining").and_then(Json::as_bool), Some(false));
    }

    let (status, body) = client::get(router.addr(), "/v1/health").expect("health");
    assert_eq!(status, 200);
    let json = Json::parse(&body).expect("health JSON");
    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(json.get("backends").and_then(Json::as_u64), Some(2));
    assert_eq!(json.get("backends_live").and_then(Json::as_u64), Some(2));

    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[test]
fn relays_canonical_errors_and_identical_plans() {
    let (_service_a, backend_a) = boot_backend(&["crime"]);
    let (_service_b, backend_b) = boot_backend(&["crime"]);
    let router = boot_router(&[("a", backend_a.addr()), ("b", backend_b.addr())]);

    // The canonical 404 and 400 come from the backend, byte-for-byte.
    let unknown = r#"{"stream":"nope","measure":"dup","budget":2}"#;
    let (via_router, body_router) =
        client::post(router.addr(), "/v1/recommend", unknown, &[]).expect("post");
    let (direct, body_direct) =
        client::post(backend_a.addr(), "/v1/recommend", unknown, &[]).expect("post");
    assert_eq!((via_router, &body_router), (direct, &body_direct));
    assert_eq!(via_router, 404);

    let malformed = r#"{"stream":"crime","measure":"dup"}"#;
    let (via_router, body_router) =
        client::post(router.addr(), "/v1/recommend", malformed, &[]).expect("post");
    let (direct, body_direct) =
        client::post(backend_a.addr(), "/v1/recommend", malformed, &[]).expect("post");
    assert_eq!((via_router, &body_router), (direct, &body_direct));
    assert_eq!(via_router, 400);

    // Well-formed requests through the router — dup, MaxPr and a frag
    // sweep — match a single box with an identical session.
    let (_reference_service, reference) = boot_backend(&["crime"]);
    let routed = crime_workload(&ApiClient::connect(router.addr()).expect("connect router"));
    let direct = crime_workload(&ApiClient::connect(reference.addr()).expect("connect box"));
    assert_eq!(routed, direct);
    reference.shutdown();

    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[test]
fn operator_drain_is_immediate_and_unknown_backend_is_404() {
    let (service_a, backend_a) = boot_backend(&["crime"]);
    let (_service_b, backend_b) = boot_backend(&["crime"]);
    let router = boot_router(&[("a", backend_a.addr()), ("b", backend_b.addr())]);
    let api = ApiClient::connect(router.addr()).expect("connect");
    let before = crime_workload(&api);

    let (status, _) =
        client::post(router.addr(), "/v1/admin/backends/zz/drain", "", &[]).expect("post");
    assert_eq!(status, 404);

    let (status, body) =
        client::post(router.addr(), "/v1/admin/backends/a/drain", "", &[]).expect("post");
    assert_eq!(status, 200, "drain failed: {body}");
    wait_for_backend(&router, "a", |b| {
        b.get("draining").and_then(Json::as_bool) == Some(true)
            && b.get("drained_by_operator").and_then(Json::as_bool) == Some(true)
    });

    // Draining is a preference, not a partition: with b also present
    // new work lands on b — a's `submitted` stays flat while traffic
    // flows — with plan bytes unchanged.
    let submitted = service_a.stats().submitted;
    assert_eq!(
        crime_workload(&api),
        before,
        "drain must not move plan bytes"
    );
    assert_eq!(
        service_a.stats().submitted,
        submitted,
        "a drained backend receives no new work"
    );

    let (status, _) =
        client::post(router.addr(), "/v1/admin/backends/a/undrain", "", &[]).expect("post");
    assert_eq!(status, 200);
    wait_for_backend(&router, "a", |b| {
        b.get("draining").and_then(Json::as_bool) == Some(false)
    });

    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[test]
fn backend_advertised_drain_reaches_the_ring() {
    let (_service_a, backend_a) = boot_backend(&["crime"]);
    let (_service_b, backend_b) = boot_backend(&["crime"]);
    let router = boot_router(&[("a", backend_a.addr()), ("b", backend_b.addr())]);

    // Drain a on the backend itself; the router's prober picks the
    // advertised flag up without any operator action on the router.
    let (status, _) = client::post(backend_a.addr(), "/v1/admin/drain", "", &[]).expect("post");
    assert_eq!(status, 200);
    wait_for_backend(&router, "a", |b| {
        b.get("draining").and_then(Json::as_bool) == Some(true)
            && b.get("drained_by_operator").and_then(Json::as_bool) == Some(false)
    });

    let (status, _) = client::post(backend_a.addr(), "/v1/admin/undrain", "", &[]).expect("post");
    assert_eq!(status, 200);
    wait_for_backend(&router, "a", |b| {
        b.get("draining").and_then(Json::as_bool) == Some(false)
    });

    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn serve_gives_up_on_a_backend_that_drops_syns() {
    let (_service, backend) = boot_backend(&["crime"]);
    let (silent, _filler) = syn_dropping_listener();
    let started = Instant::now();
    let router = boot_router(&[
        ("a", backend.addr()),
        ("silent", silent.local_addr().unwrap()),
    ]);
    // The probe's connect is bounded by the 500 ms read timeout, not
    // the OS's minutes of SYN retries.
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "serve() took {took:?}");
    let (_, body) = client::get(router.addr(), "/v1/health").expect("health");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("backends_live")
            .and_then(Json::as_u64),
        Some(1),
        "{body}"
    );
    ApiClient::connect(router.addr())
        .expect("connect")
        .recommend(&crime_request(), None)
        .expect("the live backend serves");
    router.shutdown();
    backend.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn streamed_sweep_connect_honours_its_timeout() {
    let (silent, _filler) = syn_dropping_listener();
    let request = SweepRequest {
        stream: "crime".to_string(),
        spec: ObjectiveSpec::ascertain(Measure::Dup),
        budgets: vec![BudgetSpec::Absolute(2)],
    };
    let started = Instant::now();
    let opened = SweepStream::open(
        silent.local_addr().unwrap(),
        Some(Duration::from_millis(500)),
        &request,
        None,
    );
    assert!(
        matches!(opened, Err(ClientError::Io(_))),
        "a host that drops SYNs is a transport error"
    );
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "open() took {took:?}");
}

#[test]
fn serve_survives_an_overflowing_health_answer() {
    // Every probe gets a usize::MAX content-length, three body bytes,
    // then a close.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut sock) = stream else { continue };
            let mut request = [0u8; 1024];
            let _ = sock.read(&mut request);
            let _ = sock
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\nabc");
        }
    });
    let router = boot_router(&[("liar", addr)]);
    let (status, body) = client::get(router.addr(), "/v1/topology").expect("topology");
    assert_eq!(status, 200, "{body}");
    let healthy = Json::parse(&body)
        .unwrap()
        .get("backends")
        .and_then(Json::as_array)
        .and_then(|backends| backends.first()?.get("healthy").and_then(Json::as_bool));
    assert_eq!(healthy, Some(false), "{body}");
    router.shutdown();
}

#[test]
fn fails_over_to_the_surviving_replica() {
    let (service_a, backend_a) = boot_backend(&["crime"]);
    let (_service_b, backend_b) = boot_backend(&["crime"]);
    let router = boot_router(&[
        ("a", backend_a.addr()),
        ("b", backend_b.addr()),
        ("dead", dead_addr()),
    ]);
    // The probe at boot already knows which backend is dead.
    let (_, body) = client::get(router.addr(), "/v1/health").expect("health");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("backends_live")
            .and_then(Json::as_u64),
        Some(2),
        "{body}"
    );

    // Every request must succeed, whichever replica its ring walk
    // starts at.
    let api = ApiClient::connect(router.addr()).expect("connect");
    for i in 0..8u64 {
        let request = RecommendRequest {
            stream: "crime".to_string(),
            spec: ObjectiveSpec::ascertain(Measure::Dup),
            budget: BudgetSpec::Absolute(1 + i % 3),
        };
        api.recommend(&request, None)
            .unwrap_or_else(|e| panic!("request {i} failed over a dead replica: {e}"));
    }
    let before = crime_workload(&api);

    // Killing the serving backend mid-run fails no idempotent request:
    // its pooled connections go stale, and the next request over them
    // fails over to the survivor with plan bytes unchanged — without
    // waiting for the prober.
    let (host, survivor) = if service_a.stats().submitted > 0 {
        (backend_a, backend_b)
    } else {
        (backend_b, backend_a)
    };
    host.shutdown();
    for round in 0..3 {
        assert_eq!(crime_workload(&api), before, "round {round} after the kill");
    }
    wait_for_backend(&router, "dead", |b| {
        b.get("healthy").and_then(Json::as_bool) == Some(false)
    });

    router.shutdown();
    survivor.shutdown();
}

#[test]
fn no_reachable_backend_is_503() {
    let router = boot_router(&[("dead", dead_addr())]);
    let (status, body) =
        client::post(router.addr(), "/v1/recommend", r#"{"stream":"crime"}"#, &[]).expect("post");
    assert_eq!(status, 503, "expected fleet-wide 503, got {status} {body}");
    assert!(body.contains("no live backend"), "unexpected body: {body}");
    router.shutdown();
}

#[test]
fn clean_broadcast_requires_unanimity() {
    let (service_a, backend_a) = boot_backend(&["crime"]);
    let (service_b, backend_b) = boot_backend(&["crime"]);
    let router = boot_router(&[("a", backend_a.addr()), ("b", backend_b.addr())]);
    let api = ApiClient::connect(router.addr()).expect("connect");

    // Warm both replicas so the clean has cached plans to invalidate.
    for backend in [backend_a.addr(), backend_b.addr()] {
        ApiClient::connect(backend)
            .expect("connect backend")
            .recommend(&crime_request(), None)
            .expect("warm plan");
    }

    let clean = CleanRequest {
        objects: vec![0],
        revealed: vec![9_050.0],
    };
    let applied = api.clean("crime", &clean, None).expect("broadcast clean");
    assert_eq!(applied.objects, 1);
    // Both holders saw the clean, not just the routed one: each had a
    // cached plan for the stream and each dropped it.
    assert!(service_a.store().stats().invalidations >= 1);
    assert!(service_b.store().stats().invalidations >= 1);

    // After the clean the fleet plans exactly as a single box that
    // applied the same clean.
    let (_box_service, single_box) = boot_backend(&["crime"]);
    let box_api = ApiClient::connect(single_box.addr()).expect("connect box");
    box_api.clean("crime", &clean, None).expect("box clean");
    assert_eq!(crime_workload(&api), crime_workload(&box_api));
    single_box.shutdown();

    // A clean two holders answer differently is a divergence, surfaced
    // as 502. Here d registers `crime` over a shorter series, so
    // cleaning object 4 is a 200 on c and a 400 on d.
    let (_service_c, backend_c) = boot_backend(&["crime"]);
    let short_service = PlannerService::new(
        Arc::new(SolverRegistry::with_defaults()),
        ServiceOptions::new(),
    );
    let backend_d = PlannerServer::new(short_service.clone())
        .with_config(
            fact_clean::net::ServerConfig::new().with_read_timeout(Duration::from_millis(200)),
        )
        .with_stream("crime", ClaimStream::open(session_over(3), short_service))
        .serve("127.0.0.1:0")
        .expect("bind backend");
    let skewed = boot_router(&[("c", backend_c.addr()), ("d", backend_d.addr())]);
    let beyond_d = CleanRequest {
        objects: vec![4],
        revealed: vec![9_430.0],
    };
    let err = ApiClient::connect(skewed.addr())
        .expect("connect")
        .clean("crime", &beyond_d, None)
        .expect_err("divergent clean must not claim success");
    match err {
        ClientError::Api(e) => assert_eq!(e.status, 502, "expected divergence: {}", e.message),
        other => panic!("expected an API error, got {other}"),
    }

    skewed.shutdown();
    backend_c.shutdown();
    backend_d.shutdown();
    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

/// At the default `R = 1` a stream created over the wire lives on one
/// backend, and a clean through the router reaches exactly that
/// backend: `200`, applied once, post-clean plans fresh. The other
/// backend, which never held the stream, is not asked.
#[test]
fn wire_created_stream_clean_reaches_only_its_host() {
    let (service_a, backend_a) = boot_backend(&[]);
    let (service_b, backend_b) = boot_backend(&[]);
    let router = RouterServer::new()
        .with_config(
            RouterConfig::new()
                .with_probe_interval(Duration::from_millis(25))
                .with_read_timeout(Duration::from_millis(500))
                // No repair pass copies the stream onto the other
                // backend while the host is drained below.
                .with_repair_interval(Duration::from_secs(120)),
        )
        .with_backend("a", backend_a.addr().to_string())
        .with_backend("b", backend_b.addr().to_string())
        .serve("127.0.0.1:0")
        .expect("bind router");
    let api = ApiClient::connect(router.addr()).expect("connect router");
    api.create_stream(&wire_create("wire")).expect("create");
    let on_a = hosts_stream(backend_a.addr(), "wire");
    assert!(on_a ^ hosts_stream(backend_b.addr(), "wire"));
    let (host, other) = if on_a {
        (&service_a, &service_b)
    } else {
        (&service_b, &service_a)
    };
    let (host_name, other_addr) = if on_a {
        ("a", backend_b.addr())
    } else {
        ("b", backend_a.addr())
    };

    let request = RecommendRequest {
        stream: "wire".to_string(),
        ..crime_request()
    };
    let warm = api.recommend(&request, None).expect("warm the host");
    let objects = warm.objects.clone();
    let revealed: Vec<f64> = objects
        .iter()
        .map(|&i| session().instance().dist(i).mean())
        .collect();
    let clean = CleanRequest {
        objects: objects.clone(),
        revealed: revealed.clone(),
    };
    let applied = api.clean("wire", &clean, None).expect("clean through R=1");
    assert_eq!(applied.objects, objects.len());
    assert!(applied.invalidated >= 1, "the host's warm plan was dropped");
    assert_eq!(
        host.store().stats().invalidations,
        applied.invalidated as u64,
        "the clean applied once, on the host"
    );
    assert_eq!(other.store().stats().invalidations, 0);

    let cleaned = session()
        .after_cleaning(
            &Selection::from_objects(objects.clone(), session().data().costs()),
            &revealed,
        )
        .unwrap();
    let expected = cleaned
        .recommend(ObjectiveSpec::ascertain(Measure::Dup), Budget::absolute(2))
        .unwrap();
    let after = api.recommend(&request, None).expect("post-clean plan");
    assert_eq!(
        after.identity_json().to_string(),
        plan_identity_json(&expected).to_string()
    );

    // Draining the host moves the one-member replica set onto the other
    // backend, which has no copy. The clean still reaches the host — a
    // probed holder — and the other's 404 is not a divergence.
    assert!(router.set_draining(host_name, true));
    wait_for_backend(&router, host_name, |b| {
        b.get("streams").and_then(Json::as_array).is_some_and(|s| {
            s.iter()
                .any(|s| s.get("id").and_then(Json::as_str) == Some("wire"))
        })
    });
    let object = (0..5).find(|i| !objects.contains(i)).unwrap();
    let mean = session().instance().dist(object).mean();
    let second = CleanRequest {
        objects: vec![object],
        revealed: vec![mean],
    };
    let applied = api
        .clean("wire", &second, None)
        .expect("clean with the host drained");
    assert_eq!(applied.objects, 1);
    assert!(!hosts_stream(other_addr, "wire"), "the clean made no copy");

    assert!(router.set_draining(host_name, false));
    let expected = cleaned
        .after_cleaning(
            &Selection::from_objects(vec![object], session().data().costs()),
            &[mean],
        )
        .unwrap()
        .recommend(ObjectiveSpec::ascertain(Measure::Dup), Budget::absolute(2))
        .unwrap();
    let after = api
        .recommend(&request, None)
        .expect("plan after both cleans");
    assert_eq!(
        after.identity_json().to_string(),
        plan_identity_json(&expected).to_string()
    );

    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[test]
fn stats_aggregate_sums_the_fleet() {
    let (service_a, backend_a) = boot_backend(&["crime"]);
    let (service_b, backend_b) = boot_backend(&["crime"]);
    let router = boot_router(&[("a", backend_a.addr()), ("b", backend_b.addr())]);

    // Load both replicas directly so the aggregate provably spans more
    // than whichever one the ring favours.
    for backend in [backend_a.addr(), backend_b.addr()] {
        ApiClient::connect(backend)
            .expect("connect backend")
            .recommend(&crime_request(), None)
            .expect("plan");
    }

    let stats = ApiClient::connect(router.addr())
        .expect("connect router")
        .stats()
        .expect("aggregated stats");
    let submitted = service_a.stats().submitted + service_b.stats().submitted;
    let completed = service_a.stats().completed + service_b.stats().completed;
    assert_eq!(stats.service.submitted, submitted);
    assert_eq!(stats.service.completed, completed);
    assert_eq!(submitted, 2);

    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[test]
fn streamed_sweeps_relay_through_the_router_unchanged() {
    for body in [
        r#"{"stream":"crime","measure":"dup","budgets":[1,2,3]}"#,
        r#"{"stream":"crime","measure":"bias","goal":{"maxpr":5},"budgets":[1,3]}"#,
    ] {
        // Fresh backends per body: cold caches on both sides, so the
        // diagnostics (and therefore every byte) must line up.
        let (_service, backend) = boot_backend(&["crime"]);
        let (_reference_service, reference) = boot_backend(&["crime"]);
        let router = boot_router(&[("a", backend.addr())]);

        let (status, buffered) =
            client::post(reference.addr(), "/v1/sweep", body, &[]).expect("buffered sweep");
        assert_eq!(status, 200, "{buffered}");
        let (status, streamed) =
            client::post(router.addr(), "/v1/sweep?stream=1", body, &[]).expect("streamed sweep");
        assert_eq!(status, 200, "{streamed}");
        assert_eq!(
            streamed, buffered,
            "chunks relayed through the router concatenate to the buffered body"
        );

        router.shutdown();
        backend.shutdown();
        reference.shutdown();
    }

    // A refusal never starts a chunked stream: the backend's buffered
    // 404 passes through the streamed relay byte-for-byte.
    let (_service, backend) = boot_backend(&["crime"]);
    let router = boot_router(&[("a", backend.addr())]);
    let unknown = r#"{"stream":"nope","measure":"dup","budgets":[1]}"#;
    let (via_router, body_router) =
        client::post(router.addr(), "/v1/sweep?stream=1", unknown, &[]).expect("post");
    let (direct, body_direct) =
        client::post(backend.addr(), "/v1/sweep?stream=1", unknown, &[]).expect("post");
    assert_eq!((via_router, &body_router), (direct, &body_direct));
    assert_eq!(via_router, 404);
    router.shutdown();
    backend.shutdown();
}

/// Streamed relays ride the backend's keep-alive pool: five
/// sequential streamed sweeps through an `R = 1` router open one
/// upstream connection between them, and each body still equals the
/// buffered sweep a reference backend answers at the same point of the
/// same sequence. A streamed sweep and then a recommend on one client
/// socket to the router both answer too, still on that one upstream
/// connection.
#[test]
fn sequential_streamed_sweeps_share_one_upstream_connection() {
    // A keep-alive window far past the test, so the parked upstream
    // connection cannot be reaped between sweeps.
    let service = PlannerService::new(
        Arc::new(SolverRegistry::with_defaults()),
        ServiceOptions::new(),
    );
    let backend = PlannerServer::new(service.clone())
        .with_config(fact_clean::net::ServerConfig::new().with_read_timeout(Duration::from_secs(5)))
        .with_stream("crime", ClaimStream::open(session(), service))
        .serve("127.0.0.1:0")
        .expect("bind backend");
    let (_reference_service, reference) = boot_backend(&["crime"]);
    let (proxy, sweep_connections) = sweep_connection_counter(backend.addr());
    let router = boot_router(&[("a", proxy)]);

    let sweep = r#"{"stream":"crime","measure":"dup","budgets":[1,2,3]}"#;
    for i in 0..5 {
        let (status, buffered) =
            client::post(reference.addr(), "/v1/sweep", sweep, &[]).expect("buffered sweep");
        assert_eq!(status, 200, "{buffered}");
        let (status, streamed) =
            client::post(router.addr(), "/v1/sweep?stream=1", sweep, &[]).expect("streamed");
        assert_eq!(status, 200, "{streamed}");
        assert_eq!(streamed, buffered, "sweep {i}");
    }
    assert_eq!(
        sweep_connections.load(Ordering::SeqCst),
        1,
        "five streamed relays must ride one upstream connection"
    );

    let recommend = r#"{"stream":"crime","measure":"dup","budget":2}"#;
    let expected = [
        client::post(reference.addr(), "/v1/sweep", sweep, &[]).expect("buffered sweep"),
        client::post(reference.addr(), "/v1/recommend", recommend, &[]).expect("recommend"),
    ];
    let mut conn = Conn::connect(router.addr(), Some(Duration::from_secs(10))).expect("connect");
    let streamed = conn
        .send("POST", "/v1/sweep?stream=1", &[], sweep)
        .expect("streamed sweep");
    assert!(
        conn.reusable(),
        "a complete relayed stream keeps the socket"
    );
    let next = conn
        .send("POST", "/v1/recommend", &[], recommend)
        .expect("recommend after the stream");
    assert_eq!([streamed, next], expected);
    assert_eq!(sweep_connections.load(Ordering::SeqCst), 1);

    drop(conn);
    router.shutdown();
    backend.shutdown();
    reference.shutdown();
}

/// Shutdown closes idle keep-alive connections instead of waiting out
/// their read timeout, on the router (a client's pooled connection) and
/// on the backend behind it (the router's parked upstream connection),
/// and still answers the request in flight.
#[test]
fn shutdown_closes_idle_connections_on_the_router_and_its_backend() {
    let window = Duration::from_secs(5);
    let service = PlannerService::new(
        registry_with_slow(Duration::from_millis(400)),
        ServiceOptions::new(),
    );
    let backend = PlannerServer::new(service.clone())
        .with_config(fact_clean::net::ServerConfig::new().with_read_timeout(window))
        .with_stream("crime", ClaimStream::open(session(), service))
        .serve("127.0.0.1:0")
        .expect("bind backend");
    let router = RouterServer::new()
        .with_config(
            RouterConfig::new()
                .with_probe_interval(Duration::from_millis(25))
                .with_read_timeout(window),
        )
        .with_backend("a", backend.addr().to_string())
        .serve("127.0.0.1:0")
        .expect("bind router");
    let addr = router.addr();
    let idle = ApiClient::connect(addr).expect("connect");
    idle.recommend(&crime_request(), None).expect("recommend");
    assert_eq!(idle.pool().idle_connections(), 1);
    let in_flight = std::thread::spawn(move || {
        let slow = RecommendRequest {
            spec: ObjectiveSpec::ascertain(Measure::Dup).with_strategy("slow"),
            ..crime_request()
        };
        ApiClient::connect(addr)
            .expect("connect")
            .recommend(&slow, None)
    });
    std::thread::sleep(Duration::from_millis(100)); // the slow solve is running
    let started = Instant::now();
    router.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "router shutdown took {took:?}"
    );
    in_flight
        .join()
        .expect("client thread")
        .expect("the relayed in-flight request is answered");
    let started = Instant::now();
    backend.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "backend shutdown took {took:?}"
    );
    let started = Instant::now();
    let after = idle.recommend(&crime_request(), None);
    assert!(matches!(after, Err(ClientError::Io(_))), "{after:?}");
    assert!(started.elapsed() < Duration::from_secs(1));
}

/// A clean goes to every target before the router reads any answer:
/// two backends that each take 200 ms to answer cost the routed clean
/// one wait, not two. The unanimity rule is unchanged: one `409` among
/// `200`s is still a `502`.
#[test]
fn broadcast_overlaps_its_targets() {
    let delay = Duration::from_millis(200);
    let (a, cleans_a) = slow_clean_backend(delay, 200);
    let (b, cleans_b) = slow_clean_backend(delay, 200);
    // Both fakes report `crime` resident, so a clean targets both.
    let router = boot_router(&[("a", a), ("b", b)]);
    let clean = r#"{"objects":[0],"revealed":[9050]}"#;
    let started = Instant::now();
    let (status, body) =
        client::post(router.addr(), "/v1/streams/crime/clean", clean, &[]).expect("clean");
    let took = started.elapsed();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, r#"{"invalidated":0,"objects":1}"#);
    assert_eq!(cleans_a.load(Ordering::SeqCst), 1);
    assert_eq!(cleans_b.load(Ordering::SeqCst), 1);
    assert!(
        took < Duration::from_millis(350),
        "two 200 ms answers must overlap: the clean took {took:?}"
    );
    router.shutdown();

    let (c, _) = slow_clean_backend(delay, 200);
    let (d, cleans_d) = slow_clean_backend(delay, 409);
    let router = boot_router(&[("c", c), ("d", d)]);
    let (status, body) =
        client::post(router.addr(), "/v1/streams/crime/clean", clean, &[]).expect("clean");
    assert_eq!(status, 502, "a 409 among 200s is a divergence: {body}");
    assert_eq!(cleans_d.load(Ordering::SeqCst), 1);
    router.shutdown();
}

#[test]
fn client_hangup_mid_stream_cancels_upstream_points() {
    let (service, backend) = boot_slow_backend(Duration::from_millis(300));
    let (proxy, sweep_connections) = sweep_connection_counter(backend.addr());
    let router = boot_router(&[("a", proxy)]);

    let body = r#"{"stream":"crime","measure":"dup","strategy":"slow","budgets":[1,2,3,4]}"#;
    let raw = format!(
        "POST /v1/sweep?stream=1 HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut sock = TcpStream::connect(router.addr()).unwrap();
    sock.write_all(raw.as_bytes()).unwrap();
    // Read the relayed head (proof the stream reached us through the
    // router), then walk away mid-stream.
    let mut buf = [0u8; 32];
    let n = sock.read(&mut buf).unwrap();
    assert!(n > 0, "stream head arrived through the router");
    drop(sock);

    // The router notices the hangup, drops its upstream connection,
    // and the backend's own disconnect probe cancels the sweep.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if service.stats().cancelled > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backend never cancelled the abandoned sweep: {:?}",
            service.stats()
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // The abandoned upstream connection was dropped, not parked: the
    // next streamed sweep opens a connection of its own and reads a
    // whole, well-formed stream rather than the leftover points.
    let fast = r#"{"stream":"crime","measure":"dup","budgets":[1,2]}"#;
    let (status, streamed) =
        client::post(router.addr(), "/v1/sweep?stream=1", fast, &[]).expect("next sweep");
    assert_eq!(status, 200, "{streamed}");
    let plans = Json::parse(&streamed).expect("a whole JSON document");
    assert_eq!(
        plans
            .get("plans")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(2)
    );
    assert_eq!(
        sweep_connections.load(Ordering::SeqCst),
        2,
        "the abandoned upstream connection must not be reused"
    );

    router.shutdown();
    backend.shutdown();
}

#[test]
fn wire_created_streams_fail_over_to_the_next_replica() {
    let (_service_a, backend_a) = boot_backend(&[]);
    let (_service_b, backend_b) = boot_backend(&[]);
    let router = boot_router(&[("a", backend_a.addr()), ("b", backend_b.addr())]);
    let api = ApiClient::connect(router.addr()).expect("connect router");

    let base = session();
    let create = CreateStreamRequest {
        id: "wire".to_string(),
        tenant: None,
        theta: None,
        discretize_support: None,
        data: base.data().clone(),
        claims: base.claims().clone(),
    };
    let info = api.create_stream(&create).expect("create via router");
    assert_eq!(info.id, "wire");

    // The create landed on exactly one replica — the same one the ring
    // sends solves to.
    let on_a = {
        let (_, body) = client::get(backend_a.addr(), "/v1/streams").expect("list a");
        body.contains("wire")
    };
    let on_b = {
        let (_, body) = client::get(backend_b.addr(), "/v1/streams").expect("list b");
        body.contains("wire")
    };
    assert!(on_a ^ on_b, "stream must live on exactly one replica");
    let request = RecommendRequest {
        stream: "wire".to_string(),
        spec: ObjectiveSpec::ascertain(Measure::Dup),
        budget: BudgetSpec::Absolute(2),
    };
    let plan = api
        .recommend(&request, None)
        .expect("solve on created stream");

    // Kill the host. Its wire-created stream dies with it; the ring
    // fails solves over to the survivor, which answers the canonical
    // 404 until the stream is recreated there.
    let (host, host_name, survivor) = if on_a {
        (backend_a, "a", backend_b)
    } else {
        (backend_b, "b", backend_a)
    };
    host.shutdown();
    wait_for_backend(&router, host_name, |b| {
        b.get("healthy").and_then(Json::as_bool) == Some(false)
    });
    match api.recommend(&request, None) {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 404, "{}", e.message),
        other => panic!("expected 404 after the host died, got {other:?}"),
    }

    // Recreate over the wire: the ring walk now lands on the survivor.
    let recreated = api.create_stream(&create).expect("recreate after failover");
    assert_eq!(recreated, info);
    let (_, body) = client::get(survivor.addr(), "/v1/streams").expect("list survivor");
    assert!(
        body.contains("wire"),
        "survivor hosts the recreated stream: {body}"
    );
    let again = api.recommend(&request, None).expect("solve after recreate");
    assert_eq!(
        plan.identity_json().to_string(),
        again.identity_json().to_string(),
        "identical session, identical plan either side of the failover"
    );

    // Deletes broadcast; with the host dead only the survivor answers,
    // and the id is free for yet another create afterwards.
    api.delete_stream("wire").expect("delete via router");
    match api.recommend(&request, None) {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 404, "{}", e.message),
        other => panic!("expected 404 after delete, got {other:?}"),
    }
    api.create_stream(&create).expect("recreate after delete");

    router.shutdown();
    survivor.shutdown();
}

/// The replication lifecycle end to end: with `replication_factor(2)`
/// a created stream lands on two ring backends, a converged fleet
/// repairs nothing, and killing the primary mid-run leaves every
/// subsequent read served by the secondary — same plan bytes, no
/// recreate — while a repair pass restores two-replica residency on
/// the survivors by snapshot transfer.
#[test]
fn replicated_streams_survive_primary_loss_with_failover() {
    let names = ["a", "b", "c"];
    let mut fleet: Vec<(PlannerService, Option<ServerHandle>)> = names
        .iter()
        .map(|_| {
            let (service, handle) = boot_backend(&[]);
            (service, Some(handle))
        })
        .collect();
    let mut router = RouterServer::new().with_config(
        RouterConfig::new()
            .with_probe_interval(Duration::from_millis(25))
            .with_read_timeout(Duration::from_millis(500))
            .with_replication_factor(2)
            // Long enough that only the explicit `repair()` calls run
            // passes — the assertions below stay deterministic.
            .with_repair_interval(Duration::from_secs(120)),
    );
    for (name, (_, handle)) in names.iter().zip(&fleet) {
        router = router.with_backend(*name, handle.as_ref().unwrap().addr().to_string());
    }
    let router = router.serve("127.0.0.1:0").expect("bind router");
    let api = ApiClient::connect(router.addr()).expect("connect router");

    let base = session();
    let create = CreateStreamRequest {
        id: "wire".to_string(),
        tenant: None,
        theta: None,
        discretize_support: None,
        data: base.data().clone(),
        claims: base.claims().clone(),
    };
    api.create_stream(&create).expect("replicated create");

    // The create fanned out to exactly R = 2 of the 3 backends.
    let hosts: Vec<usize> = (0..names.len())
        .filter(|&i| {
            let addr = fleet[i].1.as_ref().unwrap().addr();
            let (_, body) = client::get(addr, "/v1/streams").expect("list");
            body.contains("wire")
        })
        .collect();
    assert_eq!(
        hosts.len(),
        2,
        "replica set must host the stream: {hosts:?}"
    );

    let request = RecommendRequest {
        stream: "wire".to_string(),
        spec: ObjectiveSpec::ascertain(Measure::Dup),
        budget: BudgetSpec::Absolute(2),
    };
    let before = api.recommend(&request, None).expect("solve via router");

    // The solve landed on the primary: the replica-set member that saw
    // traffic. The other host is the secondary.
    let primary = *hosts
        .iter()
        .find(|&&i| fleet[i].0.stats().submitted > 0)
        .expect("one replica served the solve");

    // Both set members host the stream, so repair has nothing to move.
    let report = router.repair();
    assert_eq!(
        report
            .get("transfers")
            .and_then(Json::as_array)
            .unwrap()
            .len(),
        0,
        "a converged fleet repairs nothing: {report}"
    );

    // Kill the primary mid-run.
    fleet[primary].1.take().unwrap().shutdown();
    wait_for_backend(&router, names[primary], |b| {
        b.get("healthy").and_then(Json::as_bool) == Some(false)
    });

    // Every subsequent read is served by the secondary: same plan
    // bytes, and no recreate round-trip happened — the stream was
    // simply already there.
    for _ in 0..3 {
        let after = api.recommend(&request, None).expect("failover read");
        assert_eq!(
            before.identity_json().to_string(),
            after.identity_json().to_string(),
            "failover must not change plan bytes"
        );
    }
    let survivors_hosting = fleet
        .iter()
        .filter(|(_, handle)| {
            handle
                .as_ref()
                .is_some_and(|h| hosts_stream(h.addr(), "wire"))
        })
        .count();
    assert_eq!(
        survivors_hosting, 1,
        "failover must not recreate the stream"
    );

    // Repair restores two-replica residency on the survivors: the
    // secondary donates onto the next ring successor.
    let report = router.repair();
    let installed = report
        .get("transfers")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .any(|t| t.get("installed").and_then(Json::as_bool) == Some(true));
    assert!(
        installed,
        "repair must re-replicate onto a survivor: {report}"
    );
    let rehosted: Vec<usize> = (0..names.len())
        .filter(|&i| {
            fleet[i].1.as_ref().is_some_and(|handle| {
                let (_, body) = client::get(handle.addr(), "/v1/streams").expect("list");
                body.contains("wire")
            })
        })
        .collect();
    assert_eq!(rehosted.len(), 2, "R=2 residency restored: {rehosted:?}");

    // Deletes scope to the replica set; afterwards the id 404s
    // everywhere (a real 404, not a silent success on retry).
    api.delete_stream("wire").expect("scoped delete");
    match api.delete_stream("wire") {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 404, "{}", e.message),
        other => panic!("all-404 delete must surface 404, got {other:?}"),
    }

    router.shutdown();
    for (_, handle) in fleet {
        if let Some(handle) = handle {
            handle.shutdown();
        }
    }
}

/// Mirrors the router's ring placement (FNV-1a digests spread by a
/// splitmix64-style finalizer over [`VNODES`] virtual points per
/// backend) so tests can know a stream's replica set up front.
fn ring_order(names: &[&str], key: &str) -> Vec<usize> {
    fn mix64(mut x: u64) -> u64 {
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        x
    }
    let mut ring = std::collections::BTreeMap::new();
    for (idx, name) in names.iter().enumerate() {
        for v in 0..VNODES as u64 {
            let mut h = Fnv1a::new();
            h.write_str(name);
            h.write_u64(v);
            ring.entry(mix64(h.finish())).or_insert(idx);
        }
    }
    let mut h = Fnv1a::new();
    h.write_str(key);
    let point = mix64(h.finish());
    let mut order = Vec::new();
    for &idx in ring
        .range(point..)
        .chain(ring.range(..point))
        .map(|(_, i)| i)
    {
        if !order.contains(&idx) {
            order.push(idx);
            if order.len() == names.len() {
                break;
            }
        }
    }
    order
}

fn wire_create(id: &str) -> CreateStreamRequest {
    let base = session();
    CreateStreamRequest {
        id: id.to_string(),
        tenant: None,
        theta: None,
        discretize_support: None,
        data: base.data().clone(),
        claims: base.claims().clone(),
    }
}

fn hosts_stream(addr: SocketAddr, id: &str) -> bool {
    let (_, body) = client::get(addr, "/v1/streams").expect("list streams");
    body.contains(id)
}

/// Boots `names.len()` fresh backends behind an R=2 router whose
/// background repair pass is parked (only explicit `repair()` calls
/// run passes, keeping assertions deterministic).
fn boot_replicated_fleet(names: &[&str]) -> (Vec<(PlannerService, ServerHandle)>, RouterHandle) {
    let fleet: Vec<(PlannerService, ServerHandle)> =
        names.iter().map(|_| boot_backend(&[])).collect();
    let mut router = RouterServer::new().with_config(
        RouterConfig::new()
            .with_probe_interval(Duration::from_millis(25))
            .with_read_timeout(Duration::from_millis(500))
            .with_replication_factor(2)
            .with_repair_interval(Duration::from_secs(120)),
    );
    for (name, (_, handle)) in names.iter().zip(&fleet) {
        router = router.with_backend(*name, handle.addr().to_string());
    }
    (fleet, router.serve("127.0.0.1:0").expect("bind router"))
}

/// A straggler copy outside the current replica set — left by ring
/// churn — dies with the replicated delete: the router widens the
/// broadcast to every backend whose probed residency shows the
/// stream, so the repair pass has no donor to resurrect it from.
#[test]
fn replicated_delete_reaches_straggler_copies() {
    let names = ["a", "b", "c"];
    let order = ring_order(&names, "wire");
    let outsider = order[2];
    let (fleet, router) = boot_replicated_fleet(&names);
    let api = ApiClient::connect(router.addr()).expect("connect router");

    let create = wire_create("wire");
    api.create_stream(&create).expect("replicated create");
    assert!(
        !hosts_stream(fleet[outsider].1.addr(), "wire"),
        "the third backend is outside the R=2 set"
    );

    // Strand a copy on the outsider (as a failover-era create would
    // have) and let the prober notice it.
    ApiClient::connect(fleet[outsider].1.addr())
        .expect("connect outsider")
        .create_stream(&create)
        .expect("straggler copy");
    wait_for_backend(&router, names[outsider], |b| {
        b.get("streams").and_then(Json::as_array).is_some_and(|s| {
            s.iter()
                .any(|e| e.get("id").and_then(Json::as_str) == Some("wire"))
        })
    });

    api.delete_stream("wire").expect("replicated delete");
    assert!(
        !hosts_stream(fleet[outsider].1.addr(), "wire"),
        "the delete must reach the straggler copy"
    );

    // Nothing left to resurrect: repair moves no copies, reads 404,
    // and a second delete is the real 404 it should be.
    let report = router.repair();
    assert_eq!(
        report
            .get("transfers")
            .and_then(Json::as_array)
            .unwrap()
            .len(),
        0,
        "no donor must survive the delete: {report}"
    );
    let request = RecommendRequest {
        stream: "wire".to_string(),
        spec: ObjectiveSpec::ascertain(Measure::Dup),
        budget: BudgetSpec::Absolute(2),
    };
    match api.recommend(&request, None) {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 404, "{}", e.message),
        other => panic!("expected 404 after delete, got {other:?}"),
    }
    match api.delete_stream("wire") {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 404, "{}", e.message),
        other => panic!("all-404 delete must surface 404, got {other:?}"),
    }

    router.shutdown();
    for (_, handle) in fleet {
        handle.shutdown();
    }
}

/// A copy that survives the delete unseen (here: installed after the
/// delete, as a host dead at delete time would reveal on revival) is
/// purged by the repair pass via the delete tombstone — never adopted
/// back onto the replica set. Re-creating the id clears the
/// tombstone and the stream serves again.
#[test]
fn repair_purges_deleted_stream_copies_instead_of_resurrecting() {
    let names = ["a", "b", "c"];
    let order = ring_order(&names, "wire");
    let outsider = order[2];
    let (fleet, router) = boot_replicated_fleet(&names);
    let api = ApiClient::connect(router.addr()).expect("connect router");

    let create = wire_create("wire");
    api.create_stream(&create).expect("replicated create");
    api.delete_stream("wire").expect("replicated delete");

    // The revived copy the delete never saw.
    ApiClient::connect(fleet[outsider].1.addr())
        .expect("connect outsider")
        .create_stream(&create)
        .expect("revived copy");

    let report = router.repair();
    assert_eq!(
        report
            .get("transfers")
            .and_then(Json::as_array)
            .unwrap()
            .len(),
        0,
        "a tombstoned stream must not be re-replicated: {report}"
    );
    assert!(
        !report
            .get("purges")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty(),
        "the leftover copy must be purged: {report}"
    );
    assert!(
        !hosts_stream(fleet[outsider].1.addr(), "wire"),
        "purge must remove the revived copy"
    );
    let request = RecommendRequest {
        stream: "wire".to_string(),
        spec: ObjectiveSpec::ascertain(Measure::Dup),
        budget: BudgetSpec::Absolute(2),
    };
    match api.recommend(&request, None) {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 404, "{}", e.message),
        other => panic!("deleted stream must stay deleted, got {other:?}"),
    }

    // Recreating the id lifts the tombstone: the stream is live again
    // and repair leaves it alone.
    api.create_stream(&create).expect("recreate after delete");
    let report = router.repair();
    assert!(
        report
            .get("purges")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty(),
        "a recreated stream must not be purged: {report}"
    );
    api.recommend(&request, None)
        .expect("recreated stream serves");

    router.shutdown();
    for (_, handle) in fleet {
        handle.shutdown();
    }
}

/// A replicated create that finds an identical-definition leftover
/// copy on one member (409 amid 201s) converges to success — the
/// router probes the 409 member by adopting the create body and counts
/// the idempotent adopt as created. A *different* definition stays a
/// genuine divergence: 502.
#[test]
fn divergent_create_converges_on_identical_leftover_copies() {
    let names = ["a", "b", "c"];
    let order = ring_order(&names, "wire");
    let (fleet, router) = boot_replicated_fleet(&names);
    let api = ApiClient::connect(router.addr()).expect("connect router");

    // An identical copy already sits on the first set member.
    let create = wire_create("wire");
    ApiClient::connect(fleet[order[0]].1.addr())
        .expect("connect primary")
        .create_stream(&create)
        .expect("leftover copy");
    let info = api
        .create_stream(&create)
        .expect("mixed 201/409 fan-out must reconcile");
    assert_eq!(info.id, "wire");
    for &member in &order[..2] {
        assert!(
            hosts_stream(fleet[member].1.addr(), "wire"),
            "both set members host the stream after reconciliation"
        );
    }
    let request = RecommendRequest {
        stream: "wire".to_string(),
        spec: ObjectiveSpec::ascertain(Measure::Dup),
        budget: BudgetSpec::Absolute(2),
    };
    api.recommend(&request, None).expect("stream serves");

    // A leftover with a *different* definition is a real conflict.
    let order2 = ring_order(&names, "wire2");
    let mut skewed = wire_create("wire2");
    skewed.tenant = Some("someone-else".to_string());
    ApiClient::connect(fleet[order2[0]].1.addr())
        .expect("connect primary")
        .create_stream(&skewed)
        .expect("conflicting copy");
    match api.create_stream(&wire_create("wire2")) {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 502, "{}", e.message),
        other => panic!("definition conflict must stay a 502, got {other:?}"),
    }

    router.shutdown();
    for (_, handle) in fleet {
        handle.shutdown();
    }
}

/// Sends `raw` on a fresh connection to `addr` and reads one response.
fn exchange(addr: SocketAddr, raw: &[u8]) -> (TcpStream, u16, String) {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    sock.write_all(raw).expect("send");
    let (status, body) = client::read_response(&mut sock).expect("response");
    (sock, status, body)
}

#[test]
fn router_front_answers_405_404_and_typed_framing_errors() {
    let (_service, backend) = boot_backend(&["crime"]);
    let router = boot_router(&[("a", backend.addr())]);
    let addr = router.addr();
    let route_cases: &[(&str, u16, &str)] = &[
        ("GET /v1/recommend", 405, "wrong verb on a solve route"),
        ("PUT /v1/streams/crime", 405, "wrong verb on a stream route"),
        ("GET /v1/admin/repair", 405, "wrong verb on an admin route"),
        (
            "DELETE /v1/topology",
            405,
            "wrong verb on a router-only route",
        ),
        ("GET /v1/nope", 404, "unknown path"),
        (
            "POST /v1/admin/backends/a/explode",
            404,
            "unknown admin verb",
        ),
    ];
    for &(line, want, what) in route_cases {
        let raw = format!("{line} HTTP/1.1\r\ncontent-length: 0\r\n\r\n");
        let (mut sock, status, body) = exchange(addr, raw.as_bytes());
        assert_eq!(status, want, "{what}: {body}");
        assert!(
            Json::parse(&body).unwrap().get("error").is_some(),
            "{what}: error body is typed JSON: {body}"
        );
        // A route-level refusal keeps the connection alive.
        sock.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n")
            .expect("send on the kept-alive connection");
        let (status, body) = client::read_response(&mut sock).expect("health");
        assert_eq!(status, 200, "{what}: keep-alive after the refusal: {body}");
    }

    let huge = format!(
        "GET /v1/health HTTP/1.1\r\nx-pad: {}\r\n\r\n",
        "a".repeat(fact_clean::net::http::MAX_HEADER_BYTES)
    );
    let framing_cases: &[(&[u8], u16, &str)] = &[
        (b"total garbage\r\n\r\n", 400, "garbage request line"),
        (huge.as_bytes(), 431, "oversize headers"),
    ];
    for &(raw, want, what) in framing_cases {
        let (mut sock, status, body) = exchange(addr, raw);
        assert_eq!(status, want, "{what}: {body}");
        assert!(
            Json::parse(&body).unwrap().get("error").is_some(),
            "{what}: error body is typed JSON: {body}"
        );
        // Past a framing error the byte stream is unparseable: the
        // router closes the connection instead of reading on.
        let mut rest = [0u8; 16];
        match sock.read(&mut rest) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("{what}: connection stayed open: {other:?}"),
        }
    }

    // The listener survives all of it.
    let (status, _) = client::get(addr, "/v1/health").expect("health");
    assert_eq!(status, 200);
    router.shutdown();
    backend.shutdown();
}

#[test]
fn saturated_router_refuses_promptly_and_recovers() {
    let (service, backend) = boot_slow_backend(Duration::from_millis(1500));
    let router = RouterServer::new()
        .with_config(
            RouterConfig::new()
                .with_probe_interval(Duration::from_millis(25))
                .with_read_timeout(Duration::from_millis(500))
                .with_max_connections(1),
        )
        .with_backend("a", backend.addr().to_string())
        .serve("127.0.0.1:0")
        .expect("bind router");
    let addr = router.addr();
    // Occupy the single slot with a slow relayed solve.
    let holder = std::thread::spawn(move || {
        client::post(
            addr,
            "/v1/recommend",
            r#"{"stream":"crime","measure":"dup","strategy":"slow","budget":2}"#,
            &[],
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

    // The in-flight relay is unaffected by the storm…
    let (status, body) = holder.join().expect("holder thread").expect("holder");
    assert_eq!(status, 200, "in-flight request failed: {body}");
    // …and its slot frees once the router notices the closed
    // connection; retry through that window (a leaked slot keeps this
    // failing until the deadline).
    let deadline = Instant::now() + Duration::from_secs(5);
    let (status, body) = loop {
        match client::post(addr, "/v1/recommend", &crime_request().encode(), &[]) {
            Ok((503, _)) | Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(response) => break response,
            Err(e) => panic!("router never recovered: {e}"),
        }
    };
    assert_eq!(status, 200, "post-storm request failed: {body}");
    router.shutdown();
    backend.shutdown();
}
