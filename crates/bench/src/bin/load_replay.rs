//! `load_replay` — the trace-driven load harness: boots the HTTP/1.1
//! front over three real streams, replays a seeded multi-tenant trace
//! through it (mixed recommend/sweep/clean ops plus a deterministic
//! streamed-sweep tail, per-request deadlines, a mid-flight
//! abandonment mix), and records the run as `BENCH_serve.json` —
//! including a `time_to_first_point` section for the streamed op.
//!
//! The binary **fails (exit 1)** if
//!
//! * trace generation is not a pure function of (spec, seed), or the
//!   `--smoke` trace at the default seed diverges from the checked-in
//!   fixture `crates/load/fixtures/smoke.trace` (byte identity — the
//!   workload the recorded trajectory describes must be pinned), or
//! * the post-drain invariants drift: every submitted request must
//!   resolve (completed + cancelled = submitted), every gauge
//!   (`in_flight`, running/queued per lane) must read zero, every
//!   tenant ledger must read zero, and client-observed outcomes must
//!   not exceed the server's counters, or
//! * a `BENCH_budget.json` is present and the run exceeds its latency
//!   ceilings (deliberately loose — the gate catches order-of-magnitude
//!   regressions, not jitter).
//!
//! The recorded document also carries a `sweep_resume` section: an
//! in-process budget-ladder benchmark of independent per-point solves
//! vs the sweep-delta resume chain (byte-identity checked per point;
//! the run fails on any divergence).
//!
//! `--router` replays through a two-backend replicated front
//! (`replication_factor(2)`) and appends a post-drain `failover`
//! section: a repair pass syncs warm residency, one backend is killed,
//! and the document records how long until every stream answers again
//! through the survivor (gated by the budget's
//! `max_failover_recovery_ms`; the run fails if any stream stays
//! unserved for 10s).
//!
//! Run `--smoke` for the CI-sized trace; `--write-fixture` regenerates
//! the checked-in smoke fixture after a deliberate workload change;
//! `--compare <baseline.json>` prints a per-op p50/p95/p99 delta table
//! against a previously recorded bench document.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fact_clean::net::api::{BudgetSpec, RecommendRequest};
use fact_clean::net::client;
use fact_clean::net::json::Json;
use fact_clean::net::{PlannerServer, RouterConfig, RouterServer, ServerConfig, ServerHandle};
use fact_clean::prelude::*;
use fc_claims::window_sum_family;
use fc_core::{EngineCache, Result as CoreResult, SolverRegistry};
use fc_datasets::adoptions::adoptions_gaussian;
use fc_datasets::cdc::cdc_firearms_gaussian;
use fc_datasets::synthetic::urx;
use fc_datasets::workloads::LAMBDA;
use fc_load::gen::{generate, Arrival, OpTemplate, TenantProfile, TraceSpec};
use fc_load::replay::{fnv64, replay, ReplayConfig, StreamTarget};
use fc_load::report::{bench_json, budget_violations, invariant_violations, RunFingerprint};
use fc_load::trace::{Op, Trace, TraceEvent};

/// The checked-in smoke trace (regenerate with `--write-fixture`).
const SMOKE_FIXTURE: &str = include_str!("../../../load/fixtures/smoke.trace");
const SMOKE_FIXTURE_PATH: &str = "crates/load/fixtures/smoke.trace";
const DEFAULT_SEED: u64 = 42;

// ---------------------------------------------------------------- args

struct Args {
    smoke: bool,
    seed: u64,
    bench_out: Option<PathBuf>,
    budget: PathBuf,
    write_fixture: bool,
    router: bool,
    compare: Option<PathBuf>,
}

impl Args {
    fn parse() -> Self {
        let mut parsed = Self {
            smoke: false,
            seed: DEFAULT_SEED,
            bench_out: None,
            budget: PathBuf::from("BENCH_budget.json"),
            write_fixture: false,
            router: false,
            compare: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                // `--quick` is the fig binaries' spelling.
                "--smoke" | "--quick" => parsed.smoke = true,
                "--write-fixture" => parsed.write_fixture = true,
                "--router" => parsed.router = true,
                "--seed" => {
                    if let Some(v) = args.next() {
                        parsed.seed = v.parse().unwrap_or(parsed.seed);
                    }
                }
                "--bench-out" => {
                    if let Some(v) = args.next() {
                        parsed.bench_out = Some(PathBuf::from(v));
                    }
                }
                "--budget" => {
                    if let Some(v) = args.next() {
                        parsed.budget = PathBuf::from(v);
                    }
                }
                "--compare" => {
                    if let Some(v) = args.next() {
                        parsed.compare = Some(PathBuf::from(v));
                    }
                }
                other => {
                    eprintln!("load_replay: unknown argument {other:?}");
                }
            }
        }
        parsed
    }
}

/// Sleeps before delegating to greedy, so abandoned requests are still
/// mid-solve when the server's disconnect probe fires — without it
/// every solve finishes inside the probe interval and the recorded
/// cancellation rate reads zero. Only the first solve of a (stream
/// version, budget) point sleeps: a repeat of a slow key is replayed
/// from the store's plan memo, so fewer abandoned requests are still
/// solving when their client goes away.
struct SlowSolver {
    delegate: Arc<dyn Solver>,
    delay: Duration,
}

impl std::fmt::Debug for SlowSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowSolver").finish()
    }
}

impl Solver for SlowSolver {
    fn name(&self) -> &'static str {
        "slow"
    }
    fn solve_with_cache<'p>(
        &self,
        problem: &'p Problem,
        budget: Budget,
        cache: &EngineCache<'p>,
    ) -> CoreResult<Plan> {
        std::thread::sleep(self.delay);
        self.delegate.solve_with_cache(problem, budget, cache)
    }
}

// ------------------------------------------------------------ workload

/// The replayed workload: three tenants with distinct arrival shapes
/// over the shared op vocabulary (every op template must be valid on
/// every stream — stream assignment hashes tenant and event index).
fn trace_spec(smoke: bool) -> TraceSpec {
    TraceSpec {
        duration_ms: if smoke { 1_500 } else { 4_000 },
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

/// A serving session over `instance` with a window-sum claim family
/// (the one family all three measures and `maxpr` solve quickly on).
fn stream_session(instance: &Instance, window: usize) -> CleaningSession {
    let n = instance.len();
    let claims = window_sum_family(n, window, n - window, Direction::LowerIsStronger, LAMBDA)
        .expect("window fits the instance");
    SessionBuilder::new()
        .discrete(instance.clone())
        .claims(claims)
        .parallelism(Parallelism::Sequential)
        .build()
        .expect("data and claims are set")
}

/// Instance → replay target: cleans reveal the distribution means.
fn target(id: &str, instance: &Instance) -> StreamTarget {
    StreamTarget {
        id: id.to_string(),
        revealed: (0..instance.len())
            .map(|i| instance.dist(i).mean())
            .collect(),
    }
}

/// In-process ladder benchmark: one dup/MinVar problem swept over
/// `points` budget points with independent per-point solves vs the
/// sweep-delta resume chain, byte-identity checked per point. Returns
/// the `sweep_resume` section of the bench document, or an error
/// string if any point diverges.
fn sweep_resume_bench(instance: &Instance, smoke: bool) -> Result<Json, String> {
    use fc_core::planner::exec::{self, ExecOptions, SweepMode};

    let session = stream_session(instance, 4);
    let spec = ObjectiveSpec::ascertain(Measure::Dup);
    let problem = session
        .build_problem(&spec)
        .map_err(|e| format!("sweep_resume: lowering failed: {e}"))?;
    let points = if smoke { 8 } else { 12 };
    let total = instance.total_cost();
    let budgets: Vec<Budget> = (1..=points)
        .map(|i| Budget::fraction(total, i as f64 / (2 * points) as f64))
        .collect();
    let reps = if smoke { 1 } else { 3 };
    // Both modes run sequentially on a private ephemeral store, so the
    // timing difference is exactly the greedy-resumption saving — the
    // scoped-table prefix build is paid once by each side.
    let time_mode = |mode: SweepMode| -> Result<(Vec<Plan>, f64), String> {
        let opts = ExecOptions::new(Parallelism::Sequential).with_sweep_mode(mode);
        let mut best_ms = f64::INFINITY;
        let mut plans = None;
        for _ in 0..reps {
            let t = Instant::now();
            let run = exec::sweep(
                session.registry(),
                spec.strategy.key(),
                &problem,
                &budgets,
                &opts,
                None,
            )
            .map_err(|e| format!("sweep_resume: {mode:?} sweep failed: {e}"))?;
            best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1000.0);
            plans = Some(run);
        }
        Ok((plans.expect("reps >= 1"), best_ms))
    };
    let (independent, independent_ms) = time_mode(SweepMode::Independent)?;
    let (resumed, resume_ms) = time_mode(SweepMode::ResumeChain)?;
    for (i, (a, b)) in independent.iter().zip(&resumed).enumerate() {
        if let Some(why) = a.divergence(b) {
            return Err(format!("sweep_resume: point {i} diverges: {why}"));
        }
    }
    let speedup = independent_ms / resume_ms.max(1e-9);
    println!(
        "sweep_resume: {points} points, independent {independent_ms:.1}ms vs \
         resume-chain {resume_ms:.1}ms ({speedup:.2}x), plans byte-identical"
    );
    Ok(Json::obj([
        ("points", Json::Num(points as f64)),
        ("independent_ms", Json::Num(independent_ms)),
        ("resume_ms", Json::Num(resume_ms)),
        ("speedup", Json::Num(speedup)),
    ]))
}

/// Numeric field at `path` inside a bench document.
fn bench_stat(doc: &Json, path: &[&str]) -> Option<f64> {
    let mut node = doc;
    for key in path {
        node = node.get(key)?;
    }
    node.as_f64()
}

/// Prints the before/after per-op latency delta table against a
/// baseline bench document (`--compare <path>`).
fn print_compare(baseline: &Json, bench: &Json, path: &std::path::Path) {
    println!("compare: per-op latency vs {} (ms)", path.display());
    println!("  {:<10} {:>24} {:>24} {:>24}", "op", "p50", "p95", "p99");
    let Some(Json::Obj(ops)) = bench.get("per_op") else {
        return;
    };
    for (op, _) in ops {
        let cell = |q: &str| {
            let before = bench_stat(baseline, &["per_op", op, "latency", q]);
            let now = bench_stat(bench, &["per_op", op, "latency", q]);
            match (before, now) {
                (Some(b), Some(n)) if b > 0.0 => {
                    format!("{b:.1} -> {n:.1} ({:+.0}%)", (n - b) / b * 100.0)
                }
                (_, Some(n)) => format!("-> {n:.1}"),
                _ => "-".to_string(),
            }
        };
        println!(
            "  {op:<10} {:>24} {:>24} {:>24}",
            cell("p50_ms"),
            cell("p95_ms"),
            cell("p99_ms")
        );
    }
}

fn main() -> ExitCode {
    let args = Args::parse();
    let spec = trace_spec(args.smoke);

    // --- determinism gates ------------------------------------------
    let trace = generate(&spec, args.seed);
    if generate(&spec, args.seed).to_string() != trace.to_string() {
        eprintln!(
            "FAIL generation is not deterministic for seed {}",
            args.seed
        );
        return ExitCode::FAILURE;
    }
    let trace_text = trace.to_string();
    if args.write_fixture {
        let smoke_text = generate(&trace_spec(true), DEFAULT_SEED).to_string();
        std::fs::write(SMOKE_FIXTURE_PATH, &smoke_text).expect("write fixture");
        println!(
            "wrote {SMOKE_FIXTURE_PATH} ({} events, fnv64 {:016x})",
            generate(&trace_spec(true), DEFAULT_SEED).len(),
            fnv64(smoke_text.as_bytes())
        );
        return ExitCode::SUCCESS;
    }
    if args.smoke && args.seed == DEFAULT_SEED && trace_text != SMOKE_FIXTURE {
        eprintln!(
            "FAIL smoke trace diverged from {SMOKE_FIXTURE_PATH} \
             (fnv64 {:016x}, fixture {:016x}); if the workload change is \
             deliberate, regenerate with --write-fixture",
            fnv64(trace_text.as_bytes()),
            fnv64(SMOKE_FIXTURE.as_bytes())
        );
        return ExitCode::FAILURE;
    }
    // Streamed sweeps ride a deterministic tail appended *after* the
    // fixture gate: the committed fixture stays byte-stable while every
    // replay still covers the chunked `?stream=1` path (and so records
    // a `time_to_first_point` section for the budget gate to check).
    // Smoke packs the tail into a 10ms-spaced burst so the CI gate
    // exercises queue-stacked streaming; the full trace ends with a
    // ~2s-deep backlog of abandoned slow solves and closed-loop workers
    // running seconds behind schedule, so its tail starts after a drain
    // gap wide enough (post time_scale) for both to clear and spreads
    // out — otherwise time-to-first-point would measure backlog depth,
    // not streaming.
    let trace = {
        let mut events = trace.events().to_vec();
        let start = events.last().map_or(0, |e| e.timestamp_ms);
        let (count, gap_ms, spacing_ms) = if args.smoke {
            (12, 0, 10)
        } else {
            (24, 12_000, 200)
        };
        for i in 0..count {
            events.push(TraceEvent {
                timestamp_ms: start + gap_ms + spacing_ms * (i + 1),
                tenant: "api".to_string(),
                op: Op::SweepStream,
                spec: if i % 3 == 0 { "bias@maxpr5" } else { "dup" }.to_string(),
                budget: "f0.05,f0.1,f0.15".to_string(),
            });
        }
        Trace::new(events).expect("the tail keeps timestamps non-decreasing")
    };
    let trace_text = trace.to_string();
    println!(
        "trace: {} events over {}ms ({} streamed-sweep tail), fnv64 {:016x}",
        trace.len(),
        spec.duration_ms,
        if args.smoke { 12 } else { 24 },
        fnv64(trace_text.as_bytes())
    );

    // --- server(s) over three real streams ---------------------------
    let cdc = cdc_firearms_gaussian(args.seed)
        .and_then(|g| g.discretize(6))
        .expect("cdc instance");
    let adoptions = adoptions_gaussian(args.seed)
        .and_then(|g| g.discretize(6))
        .expect("adoptions instance");
    let synthetic = urx(if args.smoke { 60 } else { 120 }, args.seed ^ 0xA).expect("urx instance");

    // One backend: its own service + registry over the shared session
    // definitions, so every replica computes byte-identical plans.
    let boot_backend = || -> (PlannerService, ServerHandle) {
        let mut registry = SolverRegistry::with_defaults();
        registry.register_solver(Arc::new(SlowSolver {
            delegate: registry.get("greedy").expect("greedy exists"),
            delay: Duration::from_millis(150),
        }));
        let service = PlannerService::new(
            Arc::new(registry),
            ServiceOptions::new().with_inline_threshold(0),
        );
        // A tight cap on the bursty tenant so the run exercises 429s.
        service.set_quota(
            TenantId::new("api"),
            QuotaPolicy::default().with_max_in_flight(3),
        );
        let server = PlannerServer::new(service.clone())
            .with_config(
                ServerConfig::new()
                    .with_disconnect_poll(Duration::from_millis(25))
                    .with_read_timeout(Duration::from_millis(2_000))
                    // Repair-pass snapshot transfers carry a stream's
                    // dataset plus its warm cache slice in one body.
                    .with_max_body_bytes(8 * 1024 * 1024),
            )
            .with_stream(
                "cdc",
                ClaimStream::open(stream_session(&cdc, 2), service.clone()),
            )
            .with_stream(
                "adoptions",
                ClaimStream::open(stream_session(&adoptions, 2), service.clone()),
            )
            .with_stream(
                "urx",
                ClaimStream::open(stream_session(&synthetic, 4), service.clone()),
            )
            .serve("127.0.0.1:0")
            .expect("bind ephemeral port");
        (service, server)
    };

    let mut services = Vec::new();
    let mut backends = Vec::new();
    let mut router = None;
    let addr;
    if args.router {
        // Two replicas behind the consistent-hash front: the replay
        // drives the router, cleans broadcast, stats aggregate. With
        // R=2 both backends are every stream's replica set, so the
        // post-drain failover phase can kill either one and time how
        // long the front takes to serve the next read warm.
        let (service_a, server_a) = boot_backend();
        let (service_b, server_b) = boot_backend();
        let front = RouterServer::new()
            .with_backend("a", server_a.addr().to_string())
            .with_backend("b", server_b.addr().to_string())
            .with_config(
                RouterConfig::new()
                    .with_disconnect_poll(Duration::from_millis(25))
                    .with_probe_interval(Duration::from_millis(100))
                    .with_read_timeout(Duration::from_millis(2_000))
                    .with_replication_factor(2)
                    // Repairs run on demand (RouterHandle::repair) so
                    // the replay's latency tails stay deterministic.
                    .with_repair_interval(Duration::from_secs(600)),
            )
            .serve("127.0.0.1:0")
            .expect("bind router port");
        addr = front.addr();
        services.extend([service_a, service_b]);
        backends.extend([server_a, server_b]);
        router = Some(front);
        println!("router: fronting 2 backends at {addr}");
    } else {
        let (service, server) = boot_backend();
        addr = server.addr();
        services.push(service);
        backends.push(server);
    }
    let targets = [
        target("cdc", &cdc),
        target("adoptions", &adoptions),
        target("urx", &synthetic),
    ];

    // --- replay ------------------------------------------------------
    let config = ReplayConfig {
        addr,
        client_threads: 4,
        // Smoke runs closed-loop (as fast as the server answers); the
        // full run paces arrivals at half the modeled rate.
        time_scale: if args.smoke { 0.0 } else { 0.5 },
        abandon_permille: 120,
        request_timeout: Duration::from_secs(30),
        seed: args.seed,
    };
    let report = match replay(&config, &trace, &targets) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("FAIL replay: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replay: {} issued ({} ok, {} rejected, {} abandoned, {} transport errors) in {}ms",
        report.issued(),
        report.ok(),
        report.rejected(),
        report.abandoned(),
        report.transport_errors(),
        report.wall_ms
    );

    // --- drain: abandoned requests must resolve via cancellation -----
    // The lane gauges must also settle: cancelling a sweep resolves its
    // aggregate immediately, but the budget point being solved at that
    // moment runs to completion first — its RunningGuard is still held
    // for up to one solve after `cancelled` ticks. A genuine gauge leak
    // never settles and trips the deadline.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let drained = services.iter().all(|service| {
            let stats = service.stats();
            stats.completed + stats.cancelled == stats.submitted
                && stats.in_flight == 0
                && stats.running_interactive == 0
                && stats.running_bulk == 0
        });
        if drained {
            break;
        }
        if Instant::now() >= deadline {
            for (i, service) in services.iter().enumerate() {
                let stats = service.stats();
                eprintln!(
                    "FAIL drain: backend {i}: {} submitted but {} resolved after 60s",
                    stats.submitted,
                    stats.completed + stats.cancelled
                );
            }
            return ExitCode::FAILURE;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // --- scrape, record, validate ------------------------------------
    let stats_body = match client::get(addr, "/v1/stats") {
        Ok((200, body)) => body,
        Ok((status, body)) => {
            eprintln!("FAIL stats scrape: status {status}: {body}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("FAIL stats scrape: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server_stats = Json::parse(&stats_body).expect("stats JSON");

    // --- failover: kill a replica, time recovery through the front ---
    // Router runs measure the tentpole's promise: with R=2 and warm
    // residency synced by a repair pass, losing a backend must be
    // invisible beyond a transient — the survivors serve the next read
    // of *every* stream with no recreate round-trip. Recovery is the
    // time from the kill until all three streams have answered again
    // (so the measurement covers ring positions fronted by the victim,
    // wherever it hashed).
    let mut failover_section = None;
    let mut failover_failed = false;
    if let Some(front) = &router {
        let transfers = front
            .repair()
            .get("transfers")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        let victim = backends.pop().expect("router mode boots two backends");
        victim.shutdown();
        let killed_at = Instant::now();
        let deadline = killed_at + Duration::from_secs(10);
        let mut attempts = 0u64;
        let mut recovery_ms = None;
        'streams: for stream in ["cdc", "adoptions", "urx"] {
            let probe = RecommendRequest {
                stream: stream.to_string(),
                spec: ObjectiveSpec::ascertain(Measure::Dup),
                budget: BudgetSpec::Fraction(0.2),
            }
            .encode();
            loop {
                attempts += 1;
                match client::post(addr, "/v1/recommend", &probe, &[]) {
                    Ok((200, _)) => {
                        recovery_ms = Some(killed_at.elapsed().as_secs_f64() * 1000.0);
                        break;
                    }
                    _ if Instant::now() >= deadline => {
                        recovery_ms = None;
                        break 'streams;
                    }
                    _ => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        }
        match recovery_ms {
            Some(ms) => {
                println!(
                    "failover: backend b killed, all streams answering after {ms:.1}ms \
                     ({attempts} reads, {transfers} repair transfers beforehand)"
                );
                failover_section = Some(Json::obj([
                    ("killed_backend", Json::Str("b".to_string())),
                    ("recovery_ms", Json::Num(ms)),
                    ("attempts", Json::Num(attempts as f64)),
                    ("repair_transfers", Json::Num(transfers as f64)),
                ]));
            }
            None => {
                eprintln!("FAIL failover: a stream stayed unserved for 10s after the kill");
                failover_failed = true;
            }
        }
    }

    // Front first (it holds pooled connections into the backends).
    if let Some(front) = router.take() {
        front.shutdown();
    }
    for server in backends {
        server.shutdown();
    }

    let fingerprint = RunFingerprint {
        seed: args.seed,
        events: trace.len(),
        trace_fnv64: fnv64(trace_text.as_bytes()),
        client_threads: config.client_threads,
        abandon_permille: config.abandon_permille,
        smoke: args.smoke,
        router: args.router,
    };
    let mut failed = failover_failed;
    let mut bench = bench_json(&fingerprint, &report, &server_stats);
    if let Some(section) = failover_section {
        if let Json::Obj(fields) = &mut bench {
            fields.push(("failover".to_string(), section));
        }
    }
    // In-process ladder benchmark: runs after the servers shut down so
    // the two timed sweeps have the machine to themselves.
    match sweep_resume_bench(&synthetic, args.smoke) {
        Ok(section) => {
            if let Json::Obj(fields) = &mut bench {
                fields.push(("sweep_resume".to_string(), section));
            }
        }
        Err(why) => {
            eprintln!("FAIL {why}");
            failed = true;
        }
    }
    let bench_out = args.bench_out.unwrap_or_else(|| {
        PathBuf::from(if args.router {
            "BENCH_serve_router.json"
        } else {
            "BENCH_serve.json"
        })
    });
    // Read the --compare baseline before writing: pointing both flags
    // at the recorded file ("how does this run compare to the last
    // committed one?") is the primary use.
    let baseline = args
        .compare
        .as_ref()
        .map(|path| (path.clone(), std::fs::read_to_string(path)));
    std::fs::write(&bench_out, format!("{bench}\n")).expect("write bench output");
    println!("wrote {}", bench_out.display());

    for violation in invariant_violations(&report, &server_stats) {
        eprintln!("FAIL invariant {violation}");
        failed = true;
    }
    match std::fs::read_to_string(&args.budget) {
        Ok(text) => {
            let budget = Json::parse(&text).expect("budget JSON");
            for violation in budget_violations(&bench, &budget) {
                eprintln!("FAIL {violation}");
                failed = true;
            }
        }
        Err(_) => {
            eprintln!(
                "note: no {} — skipping the latency-budget gate",
                args.budget.display()
            );
        }
    }
    if let Some((path, read)) = baseline {
        match read {
            Ok(text) => match Json::parse(&text) {
                Ok(baseline) => print_compare(&baseline, &bench, &path),
                Err(e) => eprintln!("note: compare baseline {} is not JSON: {e}", path.display()),
            },
            Err(e) => eprintln!("note: cannot read compare baseline {}: {e}", path.display()),
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        for (op, m) in &report.per_op {
            println!(
                "  {op}: {} issued, p50 {:.1}ms p99 {:.1}ms",
                m.issued(),
                m.latency_us.quantile(0.50) as f64 / 1000.0,
                m.latency_us.quantile(0.99) as f64 / 1000.0
            );
            if m.first_point_us.count() > 0 {
                println!(
                    "  {op}: time-to-first-point p50 {:.1}ms p95 {:.1}ms",
                    m.first_point_us.quantile(0.50) as f64 / 1000.0,
                    m.first_point_us.quantile(0.95) as f64 / 1000.0
                );
            }
        }
        println!("OK: trace pinned; invariants hold; run recorded");
        ExitCode::SUCCESS
    }
}
