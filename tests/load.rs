//! The load gate. The committed smoke trace stays byte-identical to
//! its seeded generator, and replaying it — plus a burst of streamed
//! sweeps — over real sockets through one server and through an R=2
//! router leaves every post-drain invariant intact: four client
//! threads share a keep-alive pool, a seeded eighth of the solves are
//! abandoned mid-flight, and the bursty tenant runs into its quota.
//! The router run then kills a replica and times how long the
//! survivor takes to serve every stream.

use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fact_clean::net::api::{BudgetSpec, CleanRequest, RecommendRequest, SweepRequest};
use fact_clean::net::client::{self, ApiClient, ClientError, ClientPool, SweepStream};
use fact_clean::net::json::Json;
use fact_clean::net::{RouterConfig, RouterServer};
use fact_clean::prelude::*;
use fc_core::ServiceStats;
use fc_datasets::adoptions::adoptions_gaussian;
use fc_datasets::cdc::cdc_firearms_gaussian;
use fc_datasets::synthetic::urx;
use fc_load::gen::{generate, Arrival, OpTemplate, SplitMix64, TenantProfile, TraceSpec};
use fc_load::trace::{Op, Trace, TraceEvent};

mod common;
use common::{registry_with_slow, window_session};

/// The committed smoke trace: `generate(&smoke_spec(), SEED)`.
const SMOKE_FIXTURE: &str = include_str!("../crates/load/fixtures/smoke.trace");
const SEED: u64 = 42;
/// Client worker threads sharing the keep-alive pool.
const CLIENT_THREADS: usize = 4;
/// Per-mille of solve requests written and then abandoned unread.
const ABANDON_PERMILLE: u64 = 120;

/// Three tenants with distinct arrival shapes over one op vocabulary
/// (every template is valid on every stream).
fn smoke_spec() -> TraceSpec {
    TraceSpec {
        duration_ms: 1_500,
        tenants: vec![
            TenantProfile {
                tenant: "newsroom".to_string(),
                arrival: Arrival::Poisson { rate_per_sec: 24.0 },
                mix: vec![
                    OpTemplate::new(3, Op::Recommend, "dup", "f0.2"),
                    OpTemplate::new(2, Op::Recommend, "bias", "f0.15"),
                    OpTemplate::new(1, Op::Recommend, "bias@maxpr5", "a3"),
                    OpTemplate::new(2, Op::Recommend, "dup~slow", "a3"),
                ],
            },
            TenantProfile {
                tenant: "api".to_string(),
                arrival: Arrival::Bursty {
                    on_rate_per_sec: 60.0,
                    p_exit_on: 0.02,
                    p_enter_on: 0.01,
                },
                mix: vec![
                    OpTemplate::new(3, Op::Recommend, "frag", "f0.1"),
                    OpTemplate::new(1, Op::Sweep, "dup", "f0.05,f0.1,f0.15"),
                    OpTemplate::new(1, Op::Recommend, "frag~slow", "a3"),
                ],
            },
            TenantProfile {
                tenant: "batch".to_string(),
                arrival: Arrival::Diurnal {
                    trough_per_sec: 4.0,
                    peak_per_sec: 30.0,
                    period_ms: 1_000,
                },
                mix: vec![
                    OpTemplate::new(2, Op::Recommend, "dup", "a4"),
                    OpTemplate::new(1, Op::Clean, "-", "k2"),
                ],
            },
        ],
    }
}

#[test]
fn smoke_trace_matches_the_committed_fixture() {
    let generated = generate(&smoke_spec(), SEED).to_string();
    assert!(
        generated == SMOKE_FIXTURE,
        "the generated smoke trace differs from crates/load/fixtures/smoke.trace; \
         if the workload change is deliberate, commit this text as the fixture:\n{generated}"
    );
}

/// The fixture plus a 10ms-spaced burst of 12 streamed sweeps, so
/// every replay covers the chunked `?stream=1` path while the fixture
/// itself stays byte-stable.
fn replayed_events() -> Vec<TraceEvent> {
    let mut events = Trace::parse(SMOKE_FIXTURE)
        .expect("fixture")
        .events()
        .to_vec();
    let start = events.last().map_or(0, |e| e.timestamp_ms);
    events.extend((0..12).map(|i| TraceEvent {
        timestamp_ms: start + 10 * (i + 1),
        tenant: "api".to_string(),
        op: Op::SweepStream,
        spec: if i % 3 == 0 { "bias@maxpr5" } else { "dup" }.to_string(),
        budget: "f0.05,f0.1,f0.15".to_string(),
    }));
    events
}

/// The three served streams: id, instance, claim window.
fn streams() -> Vec<(&'static str, Instance, usize)> {
    let cdc = cdc_firearms_gaussian(SEED).and_then(|g| g.discretize(6));
    let adoptions = adoptions_gaussian(SEED).and_then(|g| g.discretize(6));
    vec![
        ("cdc", cdc.expect("cdc instance"), 2),
        ("adoptions", adoptions.expect("adoptions instance"), 2),
        ("urx", urx(60, SEED ^ 0xA).expect("urx instance"), 4),
    ]
}

/// One backend serving every stream under window-sum claims, with a
/// 150ms `"slow"` strategy so abandoned requests are still solving
/// when their client leaves, and a tight quota on the bursty tenant.
fn boot_backend(streams: &[(&'static str, Instance, usize)]) -> (PlannerService, ServerHandle) {
    let service = PlannerService::new(
        registry_with_slow(Duration::from_millis(150)),
        ServiceOptions::new().with_inline_threshold(0),
    );
    service.set_quota(
        TenantId::new("api"),
        QuotaPolicy::default().with_max_in_flight(3),
    );
    let mut server = PlannerServer::new(service.clone()).with_config(
        ServerConfig::new()
            .with_disconnect_poll(Duration::from_millis(25))
            .with_read_timeout(Duration::from_millis(2_000))
            // A repair transfer carries a dataset plus its warm slice.
            .with_max_body_bytes(8 * 1024 * 1024),
    );
    for (id, instance, window) in streams {
        let session = window_session(instance, *window);
        server = server.with_stream(*id, ClaimStream::open(session, service.clone()));
    }
    (service, server.serve("127.0.0.1:0").expect("bind"))
}

/// `dup`, `bias@maxpr5` or `frag~slow` → an objective.
fn objective(token: &str) -> ObjectiveSpec {
    let (measure, slow) = match token.strip_suffix("~slow") {
        Some(measure) => (measure, true),
        None => (token, false),
    };
    let spec = match measure {
        "bias" => ObjectiveSpec::ascertain(Measure::Bias),
        "dup" => ObjectiveSpec::ascertain(Measure::Dup),
        "frag" => ObjectiveSpec::ascertain(Measure::Frag),
        "bias@maxpr5" => ObjectiveSpec::find_counter(5.0),
        other => panic!("unknown spec {other:?}"),
    };
    if slow {
        spec.with_strategy("slow")
    } else {
        spec
    }
}

/// `f0.2` → a fraction, `a3` → an absolute budget.
fn budget(token: &str) -> BudgetSpec {
    match token.split_at(1) {
        ("f", frac) => BudgetSpec::Fraction(frac.parse().expect("fraction")),
        ("a", abs) => BudgetSpec::Absolute(abs.parse().expect("absolute")),
        _ => panic!("unknown budget {token:?}"),
    }
}

/// Event `index` as (path, body), a pure function of the event, its
/// index and [`SEED`]: event `i` hits stream `i % 3`, and a clean
/// reveals seeded objects at their means. A slow request's budget is
/// offset by its index, so no earlier request shares its plan-memo key
/// and an abandoned one is still queued or solving when its client
/// leaves.
fn request(
    event: &TraceEvent,
    index: usize,
    streams: &[(&str, Instance, usize)],
) -> (String, String) {
    let (id, instance, _) = &streams[index % streams.len()];
    let sweep = || SweepRequest {
        stream: id.to_string(),
        spec: objective(&event.spec),
        budgets: event.budget.split(',').map(budget).collect(),
    };
    match event.op {
        Op::Recommend => {
            let budget = match budget(&event.budget) {
                BudgetSpec::Absolute(a) if event.spec.ends_with("~slow") => {
                    BudgetSpec::Absolute(a + index as u64)
                }
                budget => budget,
            };
            let request = RecommendRequest {
                stream: id.to_string(),
                spec: objective(&event.spec),
                budget,
            };
            ("/v1/recommend".to_string(), request.encode())
        }
        Op::Sweep => ("/v1/sweep".to_string(), sweep().encode()),
        Op::SweepStream => ("/v1/sweep?stream=1".to_string(), sweep().encode()),
        Op::Clean => {
            let mut rng = SplitMix64::new(SEED).child(index as u64);
            let mut objects: Vec<usize> = (0..event.budget[1..].parse().expect("k"))
                .map(|_| rng.next_u64() as usize % instance.len())
                .collect();
            objects.sort_unstable();
            objects.dedup();
            let request = CleanRequest {
                revealed: objects.iter().map(|&o| instance.dist(o).mean()).collect(),
                objects,
            };
            (format!("/v1/streams/{id}/clean"), request.encode())
        }
    }
}

/// What the clients saw, by status class.
#[derive(Debug, Default)]
struct Tally {
    issued: u64,
    solve_ok: u64,
    clean_ok: u64,
    rejected: u64,
    /// Other 4xx and 5xx answers.
    errors: u64,
    transport_errors: u64,
    abandoned: u64,
    slowest_clean: Duration,
}

/// Drains one streamed sweep: its status, or `None` on a transport
/// failure. A refusal or an error trailer reports its status.
fn stream_sweep(addr: SocketAddr, body: &str, tenant: &str) -> Option<u16> {
    let request = SweepRequest::from_json(&Json::parse(body).expect("JSON")).expect("sweep");
    let status = |e: ClientError| match e {
        ClientError::Api(e) => Some(e.status),
        _ => None,
    };
    let timeout = Some(Duration::from_secs(30));
    let stream = match SweepStream::open(addr, timeout, &request, Some(tenant)) {
        Ok(stream) => stream,
        Err(e) => return status(e),
    };
    for point in stream {
        if let Err(e) = point {
            return status(e);
        }
    }
    Some(200)
}

/// Replays `events` closed-loop, dealt round-robin to
/// [`CLIENT_THREADS`] workers over one keep-alive pool. A seeded draw
/// per event picks the abandoned solves: the request is written and
/// the socket dropped unread.
fn drive(addr: SocketAddr, events: &[TraceEvent], streams: &[(&str, Instance, usize)]) -> Tally {
    let pool = ClientPool::new(addr)
        .expect("pool")
        .with_timeout(Duration::from_secs(30))
        .with_max_idle(CLIENT_THREADS);
    let tally = Mutex::new(Tally::default());
    let abandon_below = u64::MAX / 1000 * ABANDON_PERMILLE;
    let abandon_draws = SplitMix64::new(SEED ^ 0xAB);
    std::thread::scope(|scope| {
        for worker in 0..CLIENT_THREADS {
            let (pool, tally, abandon_draws) = (&pool, &tally, &abandon_draws);
            scope.spawn(move || {
                let mine = events.iter().enumerate().skip(worker);
                for (index, event) in mine.step_by(CLIENT_THREADS) {
                    let (path, body) = request(event, index, streams);
                    let headers = [("x-tenant", event.tenant.as_str())];
                    let clean = event.op == Op::Clean;
                    let abandon =
                        !clean && abandon_draws.child(index as u64).next_u64() < abandon_below;
                    let sent = Instant::now();
                    let status = if abandon {
                        if let Ok(mut sock) = TcpStream::connect(addr) {
                            let _ =
                                client::write_request(&mut sock, "POST", &path, &headers, &body);
                        }
                        None
                    } else if event.op == Op::SweepStream {
                        stream_sweep(addr, &body, &event.tenant)
                    } else {
                        pool.post(&path, &body, &headers)
                            .ok()
                            .map(|(status, _)| status)
                    };
                    let mut tally = tally
                        .lock()
                        .expect("no client thread panics holding the tally");
                    tally.issued += 1;
                    match status {
                        _ if abandon => tally.abandoned += 1,
                        None => tally.transport_errors += 1,
                        Some(200..=299) if clean => tally.clean_ok += 1,
                        Some(200..=299) => tally.solve_ok += 1,
                        Some(429) => tally.rejected += 1,
                        Some(_) => tally.errors += 1,
                    }
                    if clean {
                        tally.slowest_clean = tally.slowest_clean.max(sent.elapsed());
                    }
                }
            });
        }
    });
    tally.into_inner().expect("no client thread panicked")
}

/// Every submission resolved and every gauge at zero.
fn settled(stats: &ServiceStats) -> bool {
    stats.completed + stats.cancelled == stats.submitted
        && stats.in_flight == 0
        && stats.running_interactive == 0
        && stats.running_bulk == 0
        && stats.queued_interactive == 0
        && stats.queued_bulk == 0
}

/// Waits for every service to settle, then checks the post-drain
/// invariants of `GET /v1/stats` against the client's tally, and the
/// bounds that guard real work. Cancelling a sweep resolves it at once
/// but lets its running point finish, so the gauges settle up to one
/// solve later; a real leak never does.
fn assert_drained(addr: SocketAddr, services: &[PlannerService], tally: &Tally) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !services.iter().all(|s| settled(&s.stats())) {
        let stats: Vec<_> = services.iter().map(PlannerService::stats).collect();
        assert!(
            Instant::now() < deadline,
            "unsettled 60s after the replay: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = ApiClient::connect(addr)
        .expect("connect")
        .stats()
        .expect("stats");
    let service = &stats.service;
    assert!(
        settled(service),
        "resolution or gauges after drain: {service:?}"
    );
    for (tenant, usage) in &stats.tenants {
        assert_eq!(
            (usage.in_flight, usage.outstanding_evals),
            (0, 0),
            "{tenant}"
        );
    }
    // Every solve 200 the clients read is a completed service task.
    assert!(tally.solve_ok <= service.completed, "{tally:?} {service:?}");
    assert!(
        tally.rejected <= service.quota_rejected,
        "{tally:?} {service:?}"
    );
    // Every request is well-formed: each answer is a 2xx or a 429.
    assert_eq!(tally.errors, 0, "{tally:?}");
    assert!(
        service.cancelled >= 1,
        "nothing cancelled: {tally:?} {service:?}"
    );
    assert!(tally.transport_errors * 20 <= tally.issued, "{tally:?}");
    assert!(tally.solve_ok + tally.clean_ok >= 30, "{tally:?}");
    assert!(tally.clean_ok >= 1, "{tally:?}");
    assert!(tally.slowest_clean <= Duration::from_secs(1), "{tally:?}");
}

#[test]
fn smoke_replay_through_one_server_keeps_the_drain_invariants() {
    let streams = streams();
    let (service, server) = boot_backend(&streams);
    let tally = drive(server.addr(), &replayed_events(), &streams);
    assert_drained(server.addr(), &[service], &tally);
    server.shutdown();
}

#[test]
fn smoke_replay_through_a_replicated_router_keeps_the_drain_invariants_and_fails_over() {
    let streams = streams();
    let (service_a, server_a) = boot_backend(&streams);
    let (service_b, server_b) = boot_backend(&streams);
    let front = RouterServer::new()
        .with_backend("a", server_a.addr().to_string())
        .with_backend("b", server_b.addr().to_string())
        .with_config(
            RouterConfig::new()
                .with_disconnect_poll(Duration::from_millis(25))
                .with_probe_interval(Duration::from_millis(100))
                .with_read_timeout(Duration::from_millis(2_000))
                .with_replication_factor(2)
                // Repairs run on demand below.
                .with_repair_interval(Duration::from_secs(600)),
        )
        .serve("127.0.0.1:0")
        .expect("bind router");
    let addr = front.addr();
    let tally = drive(addr, &replayed_events(), &streams);
    assert_drained(addr, &[service_a, service_b], &tally);

    // Failover: with warm residency synced by a repair pass, killing a
    // replica leaves every stream answering through the survivor.
    front.repair();
    server_b.shutdown();
    let killed = Instant::now();
    for (id, _, _) in &streams {
        let probe = RecommendRequest {
            stream: id.to_string(),
            spec: ObjectiveSpec::ascertain(Measure::Dup),
            budget: BudgetSpec::Fraction(0.2),
        }
        .encode();
        while !matches!(
            client::post(addr, "/v1/recommend", &probe, &[]),
            Ok((200, _))
        ) {
            assert!(killed.elapsed() <= Duration::from_secs(10), "{id} unserved");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let recovery = killed.elapsed();
    assert!(
        recovery <= Duration::from_secs(2),
        "failover took {recovery:?}"
    );
    front.shutdown();
    server_a.shutdown();
}
