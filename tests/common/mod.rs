//! Fixtures shared by the integration tests: the 5-object crime
//! session, window-sum sessions over the paper's datasets, a
//! deliberately slow solver, and a pass-through proxy that counts the
//! connections streamed sweeps dial.

// Each test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fact_clean::prelude::*;
use fc_claims::window_sum_family;
use fc_core::{EngineCache, Result as CoreResult, SolverRegistry};
use fc_datasets::workloads::LAMBDA;

/// The crime session over all five objects of the test series.
pub fn session() -> CleaningSession {
    session_over(5)
}

/// The first `n` (3 to 5) objects of the test series; the claim
/// compares the last two, each perturbation an earlier adjacent pair.
pub fn session_over(n: usize) -> CleaningSession {
    let current = [9_010.0, 9_275.0, 9_300.0, 9_125.0, 9_430.0][..n].to_vec();
    let dists: Vec<DiscreteDist> = current
        .iter()
        .map(|&u| DiscreteDist::uniform_over(&[u - 40.0, u, u + 40.0]).unwrap())
        .collect();
    let instance = Instance::new(dists, current, vec![1; n]).unwrap();
    let claims = ClaimSet::new(
        LinearClaim::window_comparison(n - 2, n - 1, 1).unwrap(),
        (0..n - 2)
            .rev()
            .map(|i| LinearClaim::window_comparison(i, i + 1, 1).unwrap())
            .collect(),
        vec![1.0; n - 2],
        Direction::HigherIsStronger,
    )
    .unwrap();
    CleaningSession::new(instance, claims)
}

/// A sequential session over `instance` with the window-sum claim
/// family (every `window`-wide sum against the last one), the family
/// all three measures and MaxPr solve quickly on.
pub fn window_session(instance: &Instance, window: usize) -> CleaningSession {
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

/// A solver that sleeps before delegating to greedy — long enough for
/// a disconnect probe to land mid-solve or between budget points.
pub struct SlowSolver {
    pub delegate: Arc<dyn Solver>,
    pub delay: Duration,
}

impl std::fmt::Debug for SlowSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowSolver")
            .field("delay", &self.delay)
            .finish()
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

/// The default registry plus a `"slow"` strategy: greedy after
/// `delay`.
pub fn registry_with_slow(delay: Duration) -> Arc<SolverRegistry> {
    let mut registry = SolverRegistry::with_defaults();
    let delegate = registry.get("greedy").unwrap();
    registry.register_solver(Arc::new(SlowSolver { delegate, delay }));
    Arc::new(registry)
}

/// A pass-through TCP proxy to `upstream`. Returns its address and the
/// number of proxied connections that carried at least one `POST
/// /v1/sweep` request; other connections (a router's health probes, a
/// plain recommend) are not counted. A hangup on either side is passed on
/// as a half-close, so a dropped relay still reads as a hangup upstream.
pub fn sweep_connection_counter(upstream: SocketAddr) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    let count = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&count);
    std::thread::spawn(move || {
        for downstream in listener.incoming() {
            let Ok(mut downstream) = downstream else {
                continue;
            };
            let Ok(mut server) = TcpStream::connect(upstream) else {
                continue;
            };
            let (Ok(mut answers), Ok(mut client)) = (server.try_clone(), downstream.try_clone())
            else {
                continue;
            };
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut answers, &mut client);
                let _ = client.shutdown(Shutdown::Write);
            });
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                let (mut seen, mut counted) = (Vec::new(), false);
                let mut buf = [0u8; 4096];
                while let Ok(n @ 1..) = downstream.read(&mut buf) {
                    if !counted {
                        seen.extend_from_slice(&buf[..n]);
                        if seen.windows(14).any(|w| w == b"POST /v1/sweep") {
                            counted = true;
                            counter.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    if server.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
                let _ = server.shutdown(Shutdown::Write);
            });
        }
    });
    (addr, count)
}
