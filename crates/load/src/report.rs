//! `BENCH_serve.json` assembly and validation: machine-readable
//! summaries of a replay (config fingerprint, per-op/per-tenant
//! histogram summaries, scraped server counters, derived ratios),
//! the post-drain correctness invariants, and the CI latency-budget
//! check against `BENCH_budget.json`.

use fact_clean::net::json::Json;

use crate::replay::{OpMetrics, ReplayReport};

/// Identity of a bench run: everything that determines the request
/// sequence (so two BENCH files are comparable iff these match).
#[derive(Debug, Clone)]
pub struct RunFingerprint {
    /// Generator/abandonment seed.
    pub seed: u64,
    /// Trace event count.
    pub events: usize,
    /// FNV-1a of the canonical trace bytes.
    pub trace_fnv64: u64,
    /// Replayer worker threads.
    pub client_threads: usize,
    /// Abandonment millage.
    pub abandon_permille: u32,
    /// Whether this was the CI-sized `--smoke` run.
    pub smoke: bool,
    /// Whether the replay drove a replicated router front (`--router`).
    /// Router documents must carry a `failover` section when the
    /// budget sets a recovery ceiling; single-box documents are exempt.
    pub router: bool,
}

fn hist_summary(hist: &crate::hist::LogHistogram) -> Json {
    let us_to_ms = |us: u64| Json::Num(us as f64 / 1000.0);
    // One bucket sweep for all three percentiles, not one per read.
    let qs = hist.quantiles(&[0.50, 0.95, 0.99]);
    Json::obj([
        ("count", Json::Num(hist.count() as f64)),
        ("p50_ms", us_to_ms(qs[0])),
        ("p95_ms", us_to_ms(qs[1])),
        ("p99_ms", us_to_ms(qs[2])),
        ("mean_ms", Json::Num(hist.mean() / 1000.0)),
        ("max_ms", us_to_ms(hist.max())),
    ])
}

fn metrics_json(m: &OpMetrics) -> Json {
    let mut fields = vec![
        ("issued".to_string(), Json::Num(m.issued() as f64)),
        ("ok".to_string(), Json::Num(m.ok as f64)),
        ("rejected_429".to_string(), Json::Num(m.rejected as f64)),
        (
            "client_errors".to_string(),
            Json::Num(m.client_errors as f64),
        ),
        (
            "server_errors".to_string(),
            Json::Num(m.server_errors as f64),
        ),
        (
            "transport_errors".to_string(),
            Json::Num(m.transport_errors as f64),
        ),
        ("abandoned".to_string(), Json::Num(m.abandoned as f64)),
        ("latency".to_string(), hist_summary(&m.latency_us)),
    ];
    // Only streamed ops carry a first-point histogram; buffered ops
    // omit the key rather than reporting an all-zero summary.
    if m.first_point_us.count() > 0 {
        fields.push((
            "time_to_first_point".to_string(),
            hist_summary(&m.first_point_us),
        ));
    }
    Json::Obj(fields)
}

fn keyed<'m>(entries: impl Iterator<Item = (&'m String, &'m OpMetrics)>) -> Json {
    Json::Obj(
        entries
            .map(|(key, m)| (key.clone(), metrics_json(m)))
            .collect(),
    )
}

/// The full `BENCH_serve.json` document. `server_stats` is the parsed
/// body of a post-drain `GET /v1/stats`, embedded verbatim.
pub fn bench_json(
    fingerprint: &RunFingerprint,
    report: &ReplayReport,
    server_stats: &Json,
) -> Json {
    let wall_s = (report.wall_ms as f64 / 1000.0).max(1e-9);
    let answered: u64 = report.ok() + report.rejected();
    let counter = |section: &str, name: &str| stat(server_stats, &[section, name]).unwrap_or(0.0);
    let hits = counter("store", "hits");
    let misses = counter("store", "misses");
    let plan_hits = counter("store", "plan_hits");
    let plan_misses = counter("store", "plan_misses");
    let submitted = counter("service", "submitted");
    let cancelled = counter("service", "cancelled");
    // 0 when nothing was counted.
    let ratio = |part: f64, whole: f64| Json::Num(if whole > 0.0 { part / whole } else { 0.0 });
    Json::obj([
        ("bench", Json::Str("load_replay".to_string())),
        (
            "config",
            Json::obj([
                ("seed", Json::Num(fingerprint.seed as f64)),
                ("events", Json::Num(fingerprint.events as f64)),
                (
                    "trace_fnv64",
                    Json::Str(format!("{:016x}", fingerprint.trace_fnv64)),
                ),
                (
                    "client_threads",
                    Json::Num(fingerprint.client_threads as f64),
                ),
                (
                    "abandon_permille",
                    Json::Num(f64::from(fingerprint.abandon_permille)),
                ),
                ("smoke", Json::Bool(fingerprint.smoke)),
                ("router", Json::Bool(fingerprint.router)),
            ]),
        ),
        ("wall_ms", Json::Num(report.wall_ms as f64)),
        ("throughput_rps", Json::Num(answered as f64 / wall_s)),
        ("per_op", keyed(report.per_op.iter())),
        ("per_tenant", keyed(report.per_tenant.iter())),
        ("server", server_stats.clone()),
        (
            "derived",
            Json::obj([
                ("cache_hit_ratio", ratio(hits, hits + misses)),
                (
                    "plan_memo_hit_ratio",
                    ratio(plan_hits, plan_hits + plan_misses),
                ),
                ("cancellation_rate", ratio(cancelled, submitted)),
            ]),
        ),
    ])
}

/// Numeric field at `path` inside a stats/bench document.
fn stat(doc: &Json, path: &[&str]) -> Option<f64> {
    let mut node = doc;
    for key in path {
        node = node.get(key)?;
    }
    node.as_f64()
}

/// Post-drain correctness invariants. Every violation is a distinct
/// human-readable string; an empty vector is a clean run. `report` is
/// the client's view, `server_stats` the parsed post-drain
/// `GET /v1/stats` body — the two sides must tell one story.
pub fn invariant_violations(report: &ReplayReport, server_stats: &Json) -> Vec<String> {
    let mut violations = Vec::new();
    let mut check = |name: &str, ok: bool, detail: String| {
        if !ok {
            violations.push(format!("{name}: {detail}"));
        }
    };
    let s = |path: &[&str]| stat(server_stats, path).unwrap_or(-1.0);

    let submitted = s(&["service", "submitted"]);
    let completed = s(&["service", "completed"]);
    let cancelled = s(&["service", "cancelled"]);
    check(
        "resolution",
        submitted >= 0.0 && completed + cancelled == submitted,
        format!("submitted {submitted} but completed {completed} + cancelled {cancelled}"),
    );
    for gauge in [
        "in_flight",
        "running_interactive",
        "running_bulk",
        "queued_interactive",
        "queued_bulk",
    ] {
        let value = s(&["service", gauge]);
        check(
            "drained",
            value == 0.0,
            format!("{gauge} is {value} after drain"),
        );
    }
    if let Some(Json::Obj(tenants)) = server_stats.get("tenants") {
        for (tenant, usage) in tenants {
            for field in ["in_flight", "outstanding_evals"] {
                let value = usage.get(field).and_then(Json::as_f64).unwrap_or(-1.0);
                check(
                    "ledger",
                    value == 0.0,
                    format!("tenant {tenant} {field} is {value} after drain"),
                );
            }
        }
    } else {
        check("ledger", false, "stats missing tenants object".to_string());
    }

    // The client cannot see more solve successes than the server
    // completed: every recommend/sweep 200 implies at least one
    // completed service task. Clean ops are handled synchronously on
    // the connection thread (no submission), so they don't count.
    let solve_ok: u64 = report
        .per_op
        .iter()
        .filter(|(op, _)| op.as_str() != "clean")
        .map(|(_, m)| m.ok)
        .sum();
    let solve_ok = solve_ok as f64;
    check(
        "completions",
        completed >= 0.0 && solve_ok <= completed,
        format!("clients read {solve_ok} solve 200s but the server completed {completed}"),
    );
    let rejected = report.rejected() as f64;
    let quota_rejected = s(&["service", "quota_rejected"]);
    check(
        "rejections",
        quota_rejected >= 0.0 && rejected <= quota_rejected,
        format!("clients read {rejected} 429s but the server counted {quota_rejected}"),
    );
    violations
}

/// Checks a bench document against `BENCH_budget.json` ceilings:
/// `max_p99_ms` and `max_p95_ms` per op (total latency),
/// `max_first_point_p95_ms` per streamed op (time to first point),
/// `max_failover_recovery_ms` (router runs only — time from a replica
/// kill to the next served read),
/// `max_transport_error_ratio`, `min_ok`. The p99 budgets are deliberately loose (10× headroom,
/// catching order-of-magnitude regressions); the p95 budgets are the
/// tighter perf-regression guard — pinned ~1.2× above the measured
/// smoke-run tail so a >20% p95 regression on a solver hot path fails
/// CI instead of landing silently.
pub fn budget_violations(bench: &Json, budget: &Json) -> Vec<String> {
    let mut violations = Vec::new();
    for (budget_key, section, latency_key, label) in [
        ("max_p99_ms", "latency", "p99_ms", "p99"),
        ("max_p95_ms", "latency", "p95_ms", "p95"),
        (
            "max_first_point_p95_ms",
            "time_to_first_point",
            "p95_ms",
            "first-point p95",
        ),
    ] {
        let Some(Json::Obj(ceilings)) = budget.get(budget_key) else {
            continue;
        };
        for (op, ceiling) in ceilings {
            let Some(ceiling) = ceiling.as_f64() else {
                continue;
            };
            let count = stat(bench, &["per_op", op, section, "count"]).unwrap_or(0.0);
            if count == 0.0 {
                violations.push(format!(
                    "budget: op {op} has a {label} ceiling but no samples"
                ));
                continue;
            }
            let measured = stat(bench, &["per_op", op, section, latency_key]).unwrap_or(f64::MAX);
            if measured > ceiling {
                violations.push(format!(
                    "budget: {op} {label} {measured}ms exceeds ceiling {ceiling}ms"
                ));
            }
        }
    }
    // Failover recovery: how long after a replica is killed until the
    // router serves the next read. Only router runs stage a kill, so a
    // single-box document is exempt — but a router run that recorded
    // no measurement is a broken harness, not a pass.
    if let Some(ceiling) = stat(budget, &["max_failover_recovery_ms"]) {
        match stat(bench, &["failover", "recovery_ms"]) {
            Some(measured) if measured > ceiling => violations.push(format!(
                "budget: failover recovery {measured}ms exceeds ceiling {ceiling}ms"
            )),
            Some(_) => {}
            None => {
                if bench
                    .get("config")
                    .and_then(|c| c.get("router"))
                    .and_then(Json::as_bool)
                    == Some(true)
                {
                    violations.push(
                        "budget: a failover recovery ceiling is set but the router run \
                         recorded no failover section"
                            .to_string(),
                    );
                }
            }
        }
    }
    if let Some(max_ratio) = stat(budget, &["max_transport_error_ratio"]) {
        let mut issued = 0.0;
        let mut errors = 0.0;
        if let Some(Json::Obj(ops)) = bench.get("per_op") {
            for (_, m) in ops {
                issued += stat(m, &["issued"]).unwrap_or(0.0);
                errors += stat(m, &["transport_errors"]).unwrap_or(0.0);
            }
        }
        if issued > 0.0 && errors / issued > max_ratio {
            violations.push(format!(
                "budget: transport error ratio {:.4} exceeds {max_ratio}",
                errors / issued
            ));
        }
    }
    if let Some(min_ok) = stat(budget, &["min_ok"]) {
        let mut ok = 0.0;
        if let Some(Json::Obj(ops)) = bench.get("per_op") {
            for (_, m) in ops {
                ok += stat(m, &["ok"]).unwrap_or(0.0);
            }
        }
        if ok < min_ok {
            violations.push(format!(
                "budget: only {ok} successful requests, need {min_ok}"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::OpMetrics;
    use std::collections::BTreeMap;

    fn report() -> ReplayReport {
        let mut per_op = BTreeMap::new();
        let mut m = OpMetrics::default();
        for us in [1_000u64, 2_000, 50_000] {
            m.latency_us.record(us);
        }
        m.ok = 2;
        m.rejected = 1;
        per_op.insert("recommend".to_string(), m);
        let mut streamed = OpMetrics::default();
        for (total, first) in [(40_000u64, 5_000u64), (60_000, 8_000)] {
            streamed.latency_us.record(total);
            streamed.first_point_us.record(first);
        }
        streamed.ok = 2;
        per_op.insert("sweepstream".to_string(), streamed);
        ReplayReport {
            wall_ms: 1_000,
            per_op,
            per_tenant: BTreeMap::new(),
        }
    }

    fn clean_stats() -> Json {
        Json::parse(
            r#"{"service":{"submitted":5,"completed":4,"cancelled":1,"quota_rejected":1,
                "in_flight":0,"running_interactive":0,"running_bulk":0,
                "queued_interactive":0,"queued_bulk":0},
                "store":{"hits":8,"misses":2,"plan_hits":3,"plan_misses":1},
                "tenants":{"t":{"in_flight":0,"outstanding_evals":0}}}"#,
        )
        .unwrap()
    }

    fn fingerprint() -> RunFingerprint {
        RunFingerprint {
            seed: 42,
            events: 3,
            trace_fnv64: 0xdead_beef,
            client_threads: 2,
            abandon_permille: 50,
            smoke: true,
            router: false,
        }
    }

    #[test]
    fn bench_json_has_the_advertised_shape() {
        let doc = bench_json(&fingerprint(), &report(), &clean_stats());
        for path in [
            vec!["config", "seed"],
            vec!["config", "trace_fnv64"],
            vec!["throughput_rps"],
            vec!["per_op", "recommend", "latency", "p99_ms"],
            vec!["per_op", "recommend", "rejected_429"],
            vec!["per_op", "sweepstream", "time_to_first_point", "p95_ms"],
            vec!["derived", "cache_hit_ratio"],
            vec!["derived", "plan_memo_hit_ratio"],
            vec!["derived", "cancellation_rate"],
            vec!["server", "service", "submitted"],
        ] {
            let mut node = &doc;
            for key in &path {
                node = node
                    .get(key)
                    .unwrap_or_else(|| panic!("missing {path:?} in {doc}"));
            }
        }
        assert_eq!(
            stat(&doc, &["derived", "cache_hit_ratio"]),
            Some(0.8),
            "{doc}"
        );
        assert_eq!(
            stat(&doc, &["derived", "plan_memo_hit_ratio"]),
            Some(0.75),
            "{doc}"
        );
        // Buffered ops omit the first-point section entirely.
        assert!(
            stat(
                &doc,
                &["per_op", "recommend", "time_to_first_point", "count"]
            )
            .is_none(),
            "{doc}"
        );
        // The document must survive its own serialization.
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(stat(&reparsed, &["config", "seed"]), Some(42.0));
    }

    #[test]
    fn clean_runs_have_no_violations() {
        assert_eq!(
            invariant_violations(&report(), &clean_stats()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn drift_is_caught() {
        let mut r = report();
        // Counter drift: a submit that never resolved.
        let stats = Json::parse(
            r#"{"service":{"submitted":5,"completed":2,"cancelled":1,"quota_rejected":1,
                "in_flight":2,"running_interactive":0,"running_bulk":0,
                "queued_interactive":0,"queued_bulk":0},
                "store":{"hits":0,"misses":0},
                "tenants":{"t":{"in_flight":1,"outstanding_evals":64}}}"#,
        )
        .unwrap();
        let violations = invariant_violations(&r, &stats);
        assert!(violations.iter().any(|v| v.starts_with("resolution")));
        assert!(violations.iter().any(|v| v.starts_with("drained")));
        assert!(violations.iter().any(|v| v.starts_with("ledger")));
        // Client saw more 200s than the server completed.
        r.per_op.get_mut("recommend").unwrap().ok = 10;
        assert!(invariant_violations(&r, &clean_stats())
            .iter()
            .any(|v| v.starts_with("completions")));
    }

    #[test]
    fn budget_gate_catches_regressions_and_missing_samples() {
        let bench = bench_json(&fingerprint(), &report(), &clean_stats());
        let loose = Json::parse(
            r#"{"max_p99_ms":{"recommend":60000},"max_transport_error_ratio":0.5,"min_ok":1}"#,
        )
        .unwrap();
        assert_eq!(budget_violations(&bench, &loose), Vec::<String>::new());
        let tight = Json::parse(r#"{"max_p99_ms":{"recommend":10}}"#).unwrap();
        assert!(budget_violations(&bench, &tight)[0].contains("exceeds ceiling"));
        let missing = Json::parse(r#"{"max_p99_ms":{"sweep":60000}}"#).unwrap();
        assert!(budget_violations(&bench, &missing)[0].contains("no samples"));
        let starved = Json::parse(r#"{"min_ok":100}"#).unwrap();
        assert!(budget_violations(&bench, &starved)[0].contains("need 100"));
        // p95 ceilings are enforced independently of p99's.
        let p95_loose = Json::parse(r#"{"max_p95_ms":{"recommend":60000}}"#).unwrap();
        assert_eq!(budget_violations(&bench, &p95_loose), Vec::<String>::new());
        let p95_tight = Json::parse(r#"{"max_p95_ms":{"recommend":1}}"#).unwrap();
        let violations = budget_violations(&bench, &p95_tight);
        assert!(violations[0].contains("p95") && violations[0].contains("exceeds ceiling"));
        let p95_missing = Json::parse(r#"{"max_p95_ms":{"sweep":1}}"#).unwrap();
        assert!(budget_violations(&bench, &p95_missing)[0].contains("no samples"));
        // First-point ceilings read the time_to_first_point section.
        let fp_loose = Json::parse(r#"{"max_first_point_p95_ms":{"sweepstream":60000}}"#).unwrap();
        assert_eq!(budget_violations(&bench, &fp_loose), Vec::<String>::new());
        let fp_tight = Json::parse(r#"{"max_first_point_p95_ms":{"sweepstream":1}}"#).unwrap();
        let violations = budget_violations(&bench, &fp_tight);
        assert!(violations[0].contains("first-point p95") && violations[0].contains("exceeds"));
        // A first-point ceiling on a buffered op (no streamed samples)
        // is flagged, not silently skipped.
        let fp_missing = Json::parse(r#"{"max_first_point_p95_ms":{"recommend":100}}"#).unwrap();
        assert!(budget_violations(&bench, &fp_missing)[0].contains("no samples"));
    }

    #[test]
    fn failover_ceiling_applies_to_router_documents() {
        let budget = Json::parse(r#"{"max_failover_recovery_ms":2000}"#).unwrap();
        // A single-box document has no failover phase to measure.
        let single_box = bench_json(&fingerprint(), &report(), &clean_stats());
        assert_eq!(
            budget_violations(&single_box, &budget),
            Vec::<String>::new()
        );
        // A router document under the ceiling passes …
        let mut router_fp = fingerprint();
        router_fp.router = true;
        let with_failover = |recovery_ms: f64| {
            let mut doc = bench_json(&router_fp, &report(), &clean_stats());
            if let Json::Obj(fields) = &mut doc {
                fields.push((
                    "failover".to_string(),
                    Json::obj([("recovery_ms", Json::Num(recovery_ms))]),
                ));
            }
            doc
        };
        assert_eq!(
            budget_violations(&with_failover(120.0), &budget),
            Vec::<String>::new()
        );
        // … over it fails …
        assert!(budget_violations(&with_failover(9000.0), &budget)[0].contains("failover recovery"));
        // … and a router run that never measured is a broken harness.
        let unmeasured = bench_json(&router_fp, &report(), &clean_stats());
        assert!(budget_violations(&unmeasured, &budget)[0].contains("no failover section"));
    }
}
