//! Fleet-level integration tests: determinism of the cluster report,
//! crash-recovery requeue accounting, and the migration bit-identity
//! proof — including the underlying snapshot-adoption API.

use hera_cell::FaultPlan;
use hera_cluster::{run_experiment, ArrivalShape, ClusterConfig};
use hera_core::{HeraJvm, RunEnd, VmConfig};
use hera_workloads::Workload;

/// A fleet small enough for debug-mode CI but busy enough that crashes
/// catch jobs in flight: bursty arrivals near saturation.
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

#[test]
fn same_seed_reports_are_byte_identical() {
    let cfg = busy_fleet();
    let a = run_experiment(&cfg).expect("experiment runs");
    let b = run_experiment(&cfg).expect("experiment runs");
    let rendered = a.render();
    assert_eq!(rendered, b.render(), "rendered reports diverged");
    // Pinned golden: replaying twice only proves determinism of one build;
    // the digest also catches any change to the report itself.
    assert_eq!(
        hera_snap::digest64(rendered.as_bytes()),
        0xee90_6ef7_d64f_5b1a,
        "E11 report drifted from the golden"
    );
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        // Histogram equality is stronger than the rendering: every
        // bucket, not just the printed percentiles.
        assert_eq!(
            oa.metrics, ob.metrics,
            "policy {} metrics diverged",
            oa.policy
        );
    }
    assert!(a.failures.is_empty(), "{:?}", a.failures);
}

#[test]
fn different_seeds_produce_different_reports() {
    let cfg = busy_fleet();
    let mut other = busy_fleet();
    other.seed = 43;
    let a = run_experiment(&cfg).expect("experiment runs");
    let b = run_experiment(&other).expect("experiment runs");
    assert_ne!(
        a.render(),
        b.render(),
        "different seeds gave identical reports"
    );
}

#[test]
fn crash_requeues_every_in_flight_job_exactly_once() {
    let report = run_experiment(&busy_fleet()).expect("experiment runs");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let mut saw_in_flight = false;
    for o in &report.outcomes {
        assert_eq!(o.crash_events.len(), 1, "policy {}", o.policy);
        let crash = &o.crash_events[0];
        // With a single crash, the per-job requeue ledger must contain
        // exactly the jobs the crash caught in flight, each once.
        assert_eq!(
            o.requeues.len() as u64,
            crash.in_flight,
            "policy {}: requeued jobs != in-flight jobs",
            o.policy
        );
        for (&job, &n) in &o.requeues {
            assert_eq!(n, 1, "policy {}: job {job} requeued {n} times", o.policy);
        }
        assert_eq!(
            o.metrics.counter("cluster.crash.requeued"),
            crash.in_flight,
            "policy {}",
            o.policy
        );
        // Every request still completes, through the requeue.
        assert_eq!(o.completed, 50, "policy {}", o.policy);
        saw_in_flight |= crash.in_flight > 0;
    }
    assert!(
        saw_in_flight,
        "crash never caught a job in flight — config not busy enough to test requeueing"
    );
}

#[test]
fn migration_is_bit_identical_under_an_active_fault_plan() {
    let mut cfg = busy_fleet();
    // Machines run distinct seeded transient-fault plans; migration must
    // still reproduce the origin machine's run exactly, because the
    // snapshot carries its fault plan (stream position included).
    cfg.fault_rates = Some((400, 250, 150));
    let report = run_experiment(&cfg).expect("experiment runs");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let mut migrations = 0;
    for o in &report.outcomes {
        for ev in &o.migration_events {
            assert!(
                ev.verified_identical,
                "policy {}: migration {} -> {} not proven bit-identical",
                o.policy, ev.src, ev.dest
            );
            assert!(ev.snapshot_bytes > 0);
            assert!(ev.transfer_cycles > 0);
            migrations += 1;
        }
        assert_eq!(o.completed, 50, "policy {}", o.policy);
    }
    assert!(
        migrations > 0,
        "no migration ever happened — nothing was proven"
    );
}

/// The API the fleet is built on, exercised directly: a checkpoint taken
/// under one machine's fault plan restores on a machine with a
/// *different* plan only through adoption (the snapshot's plan wins);
/// the strict path refuses, and the adopted run is bit-identical to the
/// uninterrupted origin run.
#[test]
fn adoption_restores_across_fault_plans_strict_refuses() {
    let (program, checksum) = Workload::Compress.build(1, 0.02);
    let plan_a = FaultPlan::seeded(7)
        .with_mfc_faults(400, 250, 150)
        .expect("valid fault rates");
    let plan_b = FaultPlan::seeded(9)
        .with_mfc_faults(100, 50, 25)
        .expect("valid fault rates");
    let base = |plan: FaultPlan| {
        let mut cfg = VmConfig::pinned_spe(1)
            .with_checkpoint_every(400_000)
            .with_faults(plan);
        cfg.heap.size_bytes = 1 << 20;
        cfg
    };

    let vm_a = HeraJvm::new(program.clone(), base(plan_a)).expect("constructs");
    let reference = vm_a.run().expect("uninterrupted run");
    assert!(reference.is_clean(), "traps: {:?}", reference.traps);
    assert_eq!(
        reference.result,
        Some(hera_isa::Value::I32(checksum)),
        "reference checksum"
    );

    let crash_at = reference.stats.wall_cycles * 2 / 3;
    let doomed = HeraJvm::new(program.clone(), base(plan_a.with_machine_crash(crash_at)))
        .expect("constructs");
    let RunEnd::Crashed {
        at_cycle,
        checkpoints,
    } = doomed.run_until_crash().expect("doomed run")
    else {
        panic!("machine was scheduled to crash mid-run but completed");
    };
    assert!(at_cycle >= crash_at);
    let last = checkpoints
        .last()
        .expect("at least one checkpoint survived");

    let vm_b = HeraJvm::new(program, base(plan_b)).expect("constructs");
    vm_b.restore_bytes(&last.bytes)
        .expect_err("strict restore must refuse a foreign fault plan");
    let adopted = vm_b.adopt_bytes(&last.bytes).expect("adoption restores");
    assert_eq!(adopted.result, reference.result, "result diverged");
    assert_eq!(adopted.traps, reference.traps, "traps diverged");
    assert_eq!(adopted.output, reference.output, "output diverged");
    assert_eq!(
        adopted.heap_digest, reference.heap_digest,
        "final heap image diverged"
    );
    assert_eq!(
        adopted.stats.wall_cycles, reference.stats.wall_cycles,
        "wall clock diverged"
    );
}

/// A tripped breaker's probe schedule is a pure function of (seed,
/// machine, trip count): two breakers fed the identical timeout/crash
/// history produce the identical probe times, and a different seed
/// produces a different schedule.
#[test]
fn tripped_breaker_probe_schedule_is_deterministic() {
    use hera_cluster::{Breaker, ResilConfig};
    let cfg = ResilConfig {
        breaker_trip_timeouts: 2,
        ..ResilConfig::default()
    };
    let drive = |seed: u64| -> Vec<u64> {
        let mut b = Breaker::new();
        let mut probes = Vec::new();
        // Two timeouts trip it; probe, fail the trial, probe again,
        // recover, then a crash trips it once more.
        assert!(b.on_timeout(&cfg, seed, 1, 1_000).is_none());
        let first = b
            .on_timeout(&cfg, seed, 1, 2_000)
            .expect("second timeout trips");
        probes.push(first);
        b.on_probe(first);
        let second = b
            .on_timeout(&cfg, seed, 1, first)
            .expect("half-open timeout re-trips");
        probes.push(second);
        b.on_probe(second);
        b.on_success();
        probes.push(
            b.on_crash(&cfg, seed, 1, second + 500)
                .expect("crash trips"),
        );
        probes
    };
    let a = drive(42);
    assert_eq!(a, drive(42), "same history, same seed: schedule diverged");
    assert!(
        a.windows(2).all(|w| w[1] > w[0]),
        "probe backoff must grow with the trip count: {a:?}"
    );
    assert_ne!(a, drive(43), "different seeds must jitter the schedule");
}

/// The whole resilience matrix — every knob combination over a straggler
/// plus a crash — replays byte-identically from the same seed, and every
/// embedded bit-identity proof holds. A deliberately small fleet so the
/// debug-mode run stays CI-friendly.
#[test]
fn chaos_matrix_replays_byte_identically() {
    let cfg = ClusterConfig {
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
    };
    let a = hera_cluster::run_chaos_matrix(&cfg).expect("matrix runs");
    let b = hera_cluster::run_chaos_matrix(&cfg).expect("matrix runs");
    let rendered = a.render();
    assert_eq!(rendered, b.render(), "chaos matrix replay diverged");
    assert_eq!(
        hera_snap::digest64(rendered.as_bytes()),
        0x932e_b239_b026_c486,
        "E13 report drifted from the golden"
    );
    assert!(a.failures.is_empty(), "{:?}", a.failures);
}

/// Overflowing a capped machine queue degrades into *measured* shed:
/// nothing is silently dropped, and every request is accounted for as
/// either completed or shed.
#[test]
fn queue_cap_overflow_sheds_and_accounts_for_every_request() {
    let cfg = ClusterConfig {
        seed: 42,
        machines: 1,
        requests: 40,
        threads: 2,
        scale: 0.02,
        num_spes: 2,
        heap_bytes: 1 << 20,
        arrival: ArrivalShape::Bursty { burst: 20 },
        utilization_pct: 98,
        crashes: vec![],
        migrations: vec![],
        queue_cap: 4,
        ..ClusterConfig::default()
    };
    let report = run_experiment(&cfg).expect("experiment runs");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    for o in &report.outcomes {
        let overflow = o.metrics.counter("cluster.shed.overflow");
        let shed = o.metrics.counter("cluster.shed");
        assert!(
            overflow > 0,
            "policy {}: a 20-burst against queue_cap=4 never overflowed",
            o.policy
        );
        assert_eq!(
            overflow, shed,
            "policy {}: with resilience off, overflow is the only shed path",
            o.policy
        );
        assert_eq!(
            o.completed + shed,
            40,
            "policy {}: requests neither completed nor shed",
            o.policy
        );
    }
}

// ------------------------------------------------- heterogeneous shapes

/// A checkpoint taken on a 2-SPE machine lands on a 1-SPE machine only
/// through adoption: the strict path refuses the shape change outright,
/// and because the surviving cores replay a *different* interleaving
/// than the source shape would have, the adoption's warranty is replay
/// determinism — two adoptions of the same snapshot must agree on every
/// observable — plus the workload checksum, not bit-identity to the
/// source-shape run.
#[test]
fn cross_shape_adoption_is_replay_deterministic_strict_refuses() {
    let (program, checksum) = Workload::Compress.build(2, 0.02);
    let base = |spes: u8| {
        let mut cfg = VmConfig::pinned_spe(spes).with_checkpoint_every(400_000);
        cfg.heap.size_bytes = 1 << 20;
        cfg
    };

    let vm_src = HeraJvm::new(program.clone(), base(2)).expect("constructs");
    let reference = vm_src.run().expect("uninterrupted source-shape run");
    assert!(reference.is_clean(), "traps: {:?}", reference.traps);

    let crash_at = reference.stats.wall_cycles * 2 / 3;
    let doomed = HeraJvm::new(
        program.clone(),
        base(2).with_faults(FaultPlan::default().with_machine_crash(crash_at)),
    )
    .expect("constructs");
    let RunEnd::Crashed { checkpoints, .. } = doomed.run_until_crash().expect("doomed run") else {
        panic!("machine was scheduled to crash mid-run but completed");
    };
    let last = checkpoints.last().expect("a checkpoint survived");

    let vm_small = HeraJvm::new(program.clone(), base(1)).expect("constructs");
    vm_small
        .restore_bytes(&last.bytes)
        .expect_err("strict restore must refuse a snapshot from another shape");

    let a = vm_small.adopt_bytes(&last.bytes).expect("first adoption");
    let vm_small2 = HeraJvm::new(program, base(1)).expect("constructs");
    let b = vm_small2.adopt_bytes(&last.bytes).expect("second adoption");
    assert!(a.is_clean(), "adopted run trapped: {:?}", a.traps);
    assert_eq!(
        a.result,
        Some(hera_isa::Value::I32(checksum)),
        "adopted run lost the workload checksum"
    );
    assert_eq!(a.result, b.result, "result diverged between replays");
    assert_eq!(a.traps, b.traps, "traps diverged between replays");
    assert_eq!(a.output, b.output, "output diverged between replays");
    assert_eq!(
        a.heap_digest, b.heap_digest,
        "heap image diverged between replays"
    );
    assert_eq!(
        a.stats.wall_cycles, b.stats.wall_cycles,
        "wall clock diverged between replays"
    );
    // The dropped SPE's threads drained to the PPE: the adoption pays
    // migrations the source-shape run never had.
    assert!(
        a.stats.migrations > reference.stats.migrations,
        "adopting on a smaller shape must drain threads to the PPE \
         ({} vs {} migrations)",
        a.stats.migrations,
        reference.stats.migrations
    );
}

/// The whole proactive-degradation matrix (E15 at CI scale) — a
/// heterogeneous fleet under a straggler plus a crash, with drains and
/// the rebalancer on — replays byte-identically, and every embedded
/// proof and ledger reconciliation holds.
#[test]
fn rebal_matrix_replays_byte_identically_on_a_heterogeneous_fleet() {
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
    let a = hera_cluster::run_rebal_matrix(&cfg).expect("matrix runs");
    let b = hera_cluster::run_rebal_matrix(&cfg).expect("matrix runs");
    let rendered = a.render();
    assert_eq!(rendered, b.render(), "rebal matrix replay diverged");
    assert_eq!(
        hera_snap::digest64(rendered.as_bytes()),
        0xbd34_b5bf_207f_ecdc,
        "E15 report drifted from the golden"
    );
    assert!(a.failures.is_empty(), "{:?}", a.failures);
    assert_eq!(a.rows.len(), 4, "baseline + reactive + drains + rebalance");
    assert_eq!(a.stats.len(), a.rows.len());
    // The proactive layer is off in the first two rows by construction.
    assert_eq!(a.stats[0].drains, 0);
    assert_eq!(a.stats[1].drains, 0);
}

/// `advertised_capacity_permille` is the pure function behind
/// health-weighted JSQ: always in 1..=1000, monotone non-increasing in
/// the slowdown factor, and a half-open breaker never advertises more
/// than the same machine closed.
#[test]
fn advertised_capacity_is_bounded_and_monotone() {
    use hera_cluster::resil::advertised_capacity_permille;
    let mut prev = u64::MAX;
    for factor in 0..=4096u32 {
        for half_open in [false, true] {
            let cap = advertised_capacity_permille(factor, half_open);
            assert!((1..=1000).contains(&cap), "factor {factor}: cap {cap}");
        }
        let closed = advertised_capacity_permille(factor, false);
        assert!(
            closed <= prev,
            "capacity must not grow with the slowdown factor \
             ({prev} then {closed} at factor {factor})"
        );
        assert!(
            advertised_capacity_permille(factor, true) <= closed,
            "half-open must never advertise more than closed (factor {factor})"
        );
        prev = closed;
    }
    assert_eq!(advertised_capacity_permille(1, false), 1000);
    assert_eq!(advertised_capacity_permille(4, false), 250);
}

/// With every machine advertising full capacity, health-weighted JSQ
/// must collapse to the legacy ordering: fewest (queued + running)
/// jobs, ties to the lowest machine index.
#[test]
fn jsq_at_uniform_capacity_collapses_to_legacy_order() {
    use hera_cluster::{BalancePolicy, JoinShortestQueue, MachineView};
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut policy = JoinShortestQueue;
    for _ in 0..500 {
        let n = (next() % 6 + 1) as usize;
        let views: Vec<MachineView> = (0..n)
            .map(|m| MachineView {
                machine: m,
                queue_len: (next() % 5) as usize,
                running: next() % 2 == 0,
                backlog_cycles: next() % 1_000_000,
                capacity_permille: 1000,
            })
            .collect();
        let legacy = views
            .iter()
            .min_by_key(|v| (v.queue_len + v.running as usize, v.machine))
            .expect("views is non-empty")
            .machine;
        assert_eq!(
            policy.pick(&views),
            legacy,
            "uniform-capacity JSQ diverged from legacy order on {views:?}"
        );
    }
}
