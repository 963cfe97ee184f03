//! hera-scope integration: the fleet Chrome export is well-formed JSON
//! with causally-ordered tracks and paired flow arrows, the span ledger
//! reconciles exactly against the policy counters under the full chaos
//! matrix, and turning scope on leaves every existing report
//! byte-unchanged (observation only, zero virtual cycles).

use hera_cluster::{run_chaos_matrix, run_experiment, ArrivalShape, ClusterConfig};
use hera_integration::minijson::{parse, Value};
use hera_trace::FlowKind;

/// The busy two-machine fleet from `tests/cluster.rs`: bursty arrivals
/// near saturation, so the crash catches jobs in flight (requeue flows)
/// and the migration finds a job to move (migrate flows).
fn busy_fleet() -> ClusterConfig {
    ClusterConfig {
        seed: 42,
        machines: 2,
        requests: 50,
        threads: 2,
        scale: 0.02,
        num_spes: 2,
        heap_bytes: 1 << 20,
        arrival: ArrivalShape::Bursty { burst: 6 },
        utilization_pct: 98,
        crashes: vec![(1, 500)],
        migrations: vec![(0, 700)],
        ..ClusterConfig::default()
    }
}

/// The debug-sized E13 chaos matrix from `tests/cluster.rs`.
fn small_matrix() -> ClusterConfig {
    ClusterConfig {
        seed: 42,
        machines: 2,
        requests: 60,
        threads: 2,
        scale: 0.02,
        num_spes: 2,
        heap_bytes: 1 << 20,
        utilization_pct: 60,
        crashes: hera_cluster::crash_storm(42, 2, 1, 300, 700),
        migrations: vec![],
        slowdowns: vec![(0, 4, 0)],
        ..ClusterConfig::default()
    }
}

fn records(doc: &Value) -> &[Value] {
    doc.get("traceEvents")
        .expect("export has a traceEvents field")
        .as_arr()
        .expect("traceEvents is an array")
}

fn field_str<'a>(r: &'a Value, key: &str) -> &'a str {
    r.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("record missing string {key}: {r:?}"))
}

fn field_u64(r: &Value, key: &str) -> u64 {
    r.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("record missing integer {key}: {r:?}"))
}

#[test]
fn fleet_chrome_export_is_well_formed_and_causally_ordered() {
    let cfg = ClusterConfig {
        scope: true,
        ..busy_fleet()
    };
    let report = run_experiment(&cfg).expect("experiment runs");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    for outcome in &report.outcomes {
        let scope = outcome.scope.as_ref().expect("scope on => outcome present");
        let doc = parse(&scope.chrome_json())
            .unwrap_or_else(|e| panic!("policy {}: invalid JSON: {e}", outcome.policy));

        // One thread_name metadata record per track, names matching.
        let meta: Vec<_> = records(&doc)
            .iter()
            .filter(|r| field_str(r, "ph") == "M")
            .collect();
        assert_eq!(meta.len(), scope.tracks.len());
        for (m, track) in meta.iter().zip(&scope.tracks) {
            assert_eq!(field_str(m, "name"), "thread_name");
            assert_eq!(
                m.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str),
                Some(track.as_str())
            );
        }

        // Within each track, non-metadata records are emitted in
        // non-decreasing timestamp order (the writer sorts per lane).
        let mut last_ts = vec![0u64; scope.tracks.len()];
        for r in records(&doc).iter().filter(|r| field_str(r, "ph") != "M") {
            let tid = field_u64(r, "tid") as usize;
            let ts = field_u64(r, "ts");
            assert!(tid < scope.tracks.len(), "record on unknown track {tid}");
            assert!(
                ts >= last_ts[tid],
                "policy {}: track {tid} went backwards ({ts} after {})",
                outcome.policy,
                last_ts[tid]
            );
            last_ts[tid] = ts;
        }

        // Flow arrows come in exactly-one-s / exactly-one-f pairs that
        // point forward in time, and every kind is a known causal edge.
        let mut starts = std::collections::BTreeMap::new();
        let mut ends = std::collections::BTreeMap::new();
        for r in records(&doc) {
            let ph = field_str(r, "ph");
            if ph != "s" && ph != "f" {
                continue;
            }
            assert_eq!(field_str(r, "cat"), "flow");
            let name = field_str(r, "name");
            assert!(
                matches!(name, "retry" | "hedge" | "requeue" | "migrate" | "drain"),
                "unknown flow kind {name:?}"
            );
            let id = field_u64(r, "id");
            let ts = field_u64(r, "ts");
            let slot = if ph == "s" { &mut starts } else { &mut ends };
            assert!(
                slot.insert(id, ts).is_none(),
                "flow id {id} has two {ph:?} records"
            );
            if ph == "f" {
                assert_eq!(field_str(r, "bp"), "e", "binding point must be enclosing");
            }
        }
        assert_eq!(
            starts.len(),
            scope.flows.len(),
            "every FlowArrow must serialize to one s record"
        );
        for (id, s_ts) in &starts {
            let f_ts = ends
                .get(id)
                .unwrap_or_else(|| panic!("flow {id} has a start but no finish"));
            assert!(s_ts <= f_ts, "flow {id} points backwards in time");
        }
        assert_eq!(starts.len(), ends.len(), "orphaned flow finish records");

        // The busy fleet's crash catches jobs in flight and its
        // migration moves one: both causal edges must actually appear.
        assert!(!scope.flows.is_empty(), "no flow arrows recorded");
        let kind_count = |k: FlowKind| scope.flows.iter().filter(|f| f.kind == k).count() as u64;
        let requeued: u64 = outcome.requeues.values().map(|&n| n as u64).sum();
        assert_eq!(kind_count(FlowKind::Requeue), requeued);
        assert_eq!(
            kind_count(FlowKind::Migrate),
            outcome.migration_events.len() as u64
        );
        assert!(requeued > 0, "crash caught nothing in flight");
        assert!(
            !outcome.migration_events.is_empty(),
            "no migration happened"
        );
    }
}

#[test]
fn span_ledger_reconciles_exactly_under_the_full_chaos_matrix() {
    let cfg = ClusterConfig {
        scope: true,
        ..small_matrix()
    };
    let report = run_chaos_matrix(&cfg).expect("matrix runs");
    // `Scope::finish` pushes a failure for every ledger/counter mismatch,
    // for a request count that doesn't add up, and for any request left
    // without a terminal span — across every matrix row.
    assert!(report.failures.is_empty(), "{:?}", report.failures);

    let scope = report.scope.as_ref().expect("scope on => matrix keeps one");
    let row = report.rows.last().expect("matrix has rows");
    assert_eq!(
        row.name, "faults+breakers+hedging+shedding",
        "the kept recording must be the all-knobs-on row"
    );
    let c = |name: &str| scope.metrics.counter(name);
    assert_eq!(c("scope.terminal.completed"), row.completed);
    assert_eq!(c("scope.terminal.shed"), row.shed);
    assert_eq!(c("scope.flow.retries"), row.retries);
    assert_eq!(c("scope.flow.hedges"), row.hedges);
    assert_eq!(
        c("scope.terminal.completed") + c("scope.terminal.shed") + c("scope.terminal.timedout"),
        row.requests,
        "every request must end in exactly one terminal span"
    );
    assert_eq!(c("scope.spans"), scope.spans.len() as u64);
    assert_eq!(c("scope.flows"), scope.flows.len() as u64);

    // The samplers produced per-machine series covering the trace span.
    for m in 0..cfg.machines {
        for what in ["queue", "inflight", "breaker", "util"] {
            let series = scope
                .metrics
                .time_series(&format!("scope.{what}.m{m}"))
                .unwrap_or_else(|| panic!("missing scope.{what}.m{m} series"));
            assert!(!series.is_empty());
        }
    }
}

#[test]
fn scope_recording_leaves_every_report_byte_unchanged() {
    // The cluster experiment: scope on must not move a single byte of
    // the rendered report, nor any policy's metrics registry.
    let off = run_experiment(&busy_fleet()).expect("experiment runs");
    let on = run_experiment(&ClusterConfig {
        scope: true,
        ..busy_fleet()
    })
    .expect("experiment runs");
    assert_eq!(off.render(), on.render(), "scope perturbed the report");
    for (a, b) in off.outcomes.iter().zip(&on.outcomes) {
        assert_eq!(a.metrics, b.metrics, "scope perturbed {} metrics", a.policy);
        assert_eq!(
            a.latencies, b.latencies,
            "scope perturbed {} latencies",
            a.policy
        );
    }

    // Same for the chaos matrix, where scope hooks sit on every
    // resilience path (retries, hedges, breakers, shedding).
    let off = run_chaos_matrix(&small_matrix()).expect("matrix runs");
    let on = run_chaos_matrix(&ClusterConfig {
        scope: true,
        ..small_matrix()
    })
    .expect("matrix runs");
    assert_eq!(off.render(), on.render(), "scope perturbed the matrix");
    assert!(off.scope.is_none() && on.scope.is_some());
    assert!(on.failures.is_empty(), "{:?}", on.failures);
}

#[test]
fn scope_replay_is_byte_identical() {
    let cfg = ClusterConfig {
        scope: true,
        ..small_matrix()
    };
    let a = run_chaos_matrix(&cfg).expect("matrix runs");
    let b = run_chaos_matrix(&cfg).expect("matrix runs");
    let (sa, sb) = (a.scope.expect("scope"), b.scope.expect("scope"));
    let (json, slo) = (sa.chrome_json(), sa.slo_report());
    assert_eq!(json, sb.chrome_json(), "trace replay diverged");
    assert_eq!(slo, sb.slo_report(), "SLO replay diverged");
    // Pinned goldens: the replay check alone would pass any change that
    // is deterministic.
    assert_eq!(
        hera_snap::digest64(json.as_bytes()),
        0xc186_2c3a_8fea_09d3,
        "fleet Chrome trace drifted from the golden"
    );
    assert_eq!(
        hera_snap::digest64(slo.as_bytes()),
        0xf3dc_2c5b_600d_e82c,
        "fleet SLO table drifted from the golden"
    );
}

/// Under the proactive-degradation matrix the new `Drain` causal edge
/// joins the ledger: the scope's drain-flow count must reconcile
/// exactly against the simulator's `rebal.drains` counter (Scope::finish
/// pushes a failure on any mismatch), and drain arrows are real flows
/// in the kept recording.
#[test]
fn drain_ledger_reconciles_under_the_rebal_matrix() {
    let cfg = ClusterConfig {
        seed: 42,
        machines: 3,
        requests: 60,
        threads: 2,
        scale: 0.02,
        num_spes: 2,
        heap_bytes: 1 << 20,
        utilization_pct: 75,
        shapes: [2u8, 1, 2]
            .iter()
            .map(|&s| hera_cluster::MachineShape { spe_count: s })
            .collect(),
        crashes: hera_cluster::crash_storm(42, 3, 1, 300, 700),
        migrations: vec![],
        slowdowns: vec![(0, 4, 0)],
        scope: true,
        ..ClusterConfig::default()
    };
    let report = hera_cluster::run_rebal_matrix(&cfg).expect("matrix runs");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let scope = report.scope.as_ref().expect("scope on => matrix keeps one");
    let stats = report.stats.last().expect("matrix has rows");
    assert_eq!(
        scope.metrics.counter("scope.flow.drains"),
        stats.drains,
        "scope drain ledger out of step with the simulator's counter"
    );
    let drain_flows = scope
        .flows
        .iter()
        .filter(|f| f.kind == FlowKind::Drain)
        .count() as u64;
    assert_eq!(
        drain_flows, stats.drains,
        "every accounted drain must leave exactly one Drain arrow"
    );
}
