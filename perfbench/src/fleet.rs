//! The fleet workloads: `fleet-recovery` (the E15 heterogeneous fleet,
//! `run_rebal_matrix`) and `fleet-traffic` (a long E13 trace,
//! `run_chaos_matrix`). Each run replays several sub-seeds derived from
//! the benchmark's `--seed`, and reports means over them.

use crate::spans::Spans;
use crate::util::{fnv1a, secs, FNV_OFFSET};
use hera_cell::FaultPlan;
use hera_cluster::{ClusterConfig, MachineShape, MatrixRow, RebalStats};
use hera_core::{CheckpointBlob, HeraJvm, RunStats, VmConfig};
use hera_isa::{Program, Value};
use hera_workloads::Workload;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fleet {
    Recovery,
    Traffic,
}

impl Fleet {
    pub fn name(self) -> &'static str {
        match self {
            Fleet::Recovery => "fleet-recovery",
            Fleet::Traffic => "fleet-traffic",
        }
    }

    /// Sub-seeds per run. The recovery fleet's 600-request trace makes
    /// its p50, p95 and peak memory swing by about a quarter from seed to
    /// seed, so it needs many seeds for steady figures. The long traffic
    /// trace keeps its latencies steady with few, but its host cost per
    /// request differs by up to a fifth between seeds, so the throughput
    /// needs six.
    pub fn sub_seeds(self, quick: bool) -> usize {
        match (self, quick) {
            (Fleet::Recovery, false) => 24,
            (Fleet::Traffic, false) => 6,
            (_, true) => 2,
        }
    }

    pub fn requests(self, quick: bool) -> u64 {
        match (self, quick) {
            (Fleet::Recovery, false) => 600,
            (Fleet::Traffic, false) => 100_000,
            (Fleet::Recovery, true) => 120,
            (Fleet::Traffic, true) => 3_000,
        }
    }

    /// Metric-name slugs of the matrix rows, in report order.
    pub fn row_slugs(self) -> &'static [&'static str] {
        match self {
            Fleet::Recovery => &["baseline", "reactive", "drains", "drains-rebalance"],
            Fleet::Traffic => &[
                "baseline",
                "faults",
                "breakers",
                "hedging",
                "shedding",
                "breakers-hedging",
                "breakers-shedding",
                "hedging-shedding",
                "all-knobs",
            ],
        }
    }

    /// The tail percentile reported for this fleet: the highest one with
    /// at least ten samples beyond it in the headline row.
    pub fn tail(self) -> &'static str {
        match self {
            Fleet::Recovery => "p95_vcycles",
            Fleet::Traffic => "p999_vcycles",
        }
    }

    /// The configuration `figures -- cluster-rebal` (E15) or
    /// `figures -- cluster-chaos` (E13) builds, with scope off.
    pub fn config(self, seed: u64, requests: u64) -> ClusterConfig {
        let machines = 6;
        let common = ClusterConfig {
            seed,
            machines,
            requests,
            threads: 2,
            scale: 0.02,
            heap_bytes: 1 << 20,
            crashes: hera_cluster::crash_storm(seed, machines, 2, 300, 700),
            slowdowns: vec![(0, 4, 0)],
            ..ClusterConfig::default()
        };
        match self {
            Fleet::Recovery => ClusterConfig {
                num_spes: 6,
                utilization_pct: 75,
                shapes: (0..machines)
                    .map(|m| MachineShape {
                        spe_count: match m % 6 {
                            0 | 5 => 6,
                            1 | 3 => 2,
                            _ => 4,
                        },
                    })
                    .collect(),
                migrations: vec![(0, 450), (5, 550)],
                ..common
            },
            Fleet::Traffic => ClusterConfig {
                num_spes: 2,
                utilization_pct: 60,
                migrations: vec![],
                ..common
            },
        }
    }
}

/// The `i`-th sub-seed of benchmark seed `seed`. Distinct benchmark
/// seeds give disjoint sub-seed sets.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    hera_rng::splitmix64(seed.wrapping_mul(64).wrapping_add(i as u64))
}

/// One checked matrix replay.
pub struct MatrixRun {
    /// The sub-seed replayed.
    pub seed: u64,
    pub secs: f64,
    pub rows: Vec<MatrixRow>,
    /// Per-row proactive counters (recovery fleet only).
    pub stats: Vec<RebalStats>,
    /// Digest of the rendered report.
    pub digest: u64,
}

impl MatrixRun {
    pub fn headline(&self) -> &MatrixRow {
        self.rows.last().expect("matrix has rows")
    }
}

/// Completions within the SLO per request offered (completions per
/// request for rows that run without an SLO).
pub fn goodput(r: &MatrixRow) -> f64 {
    r.slo_ok.unwrap_or(r.completed) as f64 / r.requests.max(1) as f64
}

/// Replay the fleet's matrix for `cfg` and check it: `Ok`, no proof or
/// ledger failures, and every live migration proven identical. Only the
/// matrix call is timed.
pub fn run_matrix(
    fleet: Fleet,
    cfg: &ClusterConfig,
    spans: &mut Spans,
) -> Result<MatrixRun, String> {
    let what = format!("{} seed {}", fleet.name(), cfg.seed);
    let t0 = Instant::now();
    let (rows, stats, failures, rendered) = match fleet {
        Fleet::Recovery => {
            let r = spans
                .time("cluster.run_rebal_matrix", || {
                    hera_cluster::run_rebal_matrix(cfg)
                })
                .map_err(|e| format!("{what}: {e}"))?;
            let rendered = r.render();
            (r.rows, r.stats, r.failures, rendered)
        }
        Fleet::Traffic => {
            let r = spans
                .time("cluster.run_chaos_matrix", || {
                    hera_cluster::run_chaos_matrix(cfg)
                })
                .map_err(|e| format!("{what}: {e}"))?;
            let rendered = r.render();
            (r.rows, Vec::new(), r.failures, rendered)
        }
    };
    let secs = secs(t0);
    if !failures.is_empty() {
        return Err(format!("{what}: failures {failures:?}"));
    }
    if let Some(s) = stats.iter().find(|s| s.migrations_verified != s.migrations) {
        return Err(format!("{what}: unverified migration in {s:?}"));
    }
    if rows.len() != fleet.row_slugs().len() {
        return Err(format!("{what}: {} rows", rows.len()));
    }
    Ok(MatrixRun {
        seed: cfg.seed,
        secs,
        rows,
        stats,
        digest: fnv1a(FNV_OFFSET, rendered.as_bytes()),
    })
}

/// One job class at the fleet's scale, built and verified.
pub struct Class {
    pub workload: Workload,
    pub program: Program,
    pub expected: i32,
}

pub fn build_classes(cfg: &ClusterConfig, spans: &mut Spans) -> Result<Vec<Class>, String> {
    Workload::ALL
        .iter()
        .map(|&w| {
            let (program, expected) =
                spans.time("workloads.build", || w.build(cfg.threads, cfg.scale));
            spans
                .time("isa.verify_program", || hera_isa::verify_program(&program))
                .map_err(|e| format!("{} (fleet scale): verify: {e:?}", w.name()))?;
            Ok(Class {
                workload: w,
                program,
                expected,
            })
        })
        .collect()
}

/// A machine configuration the fleet measures reference runs on:
/// `(SPEs, fault plan)`, and how many times one matrix call runs it per
/// job class (once for the fault-free profile, once for the faulty one).
pub struct RefKey {
    pub spes: u8,
    pub plan: FaultPlan,
    pub runs_per_matrix: u64,
}

/// The VM configuration of a fleet machine, as `hera-cluster` builds it.
pub fn machine_vm(cfg: &ClusterConfig, key: &RefKey, checkpoints: bool) -> VmConfig {
    let mut vm = VmConfig::pinned_spe(key.spes).with_faults(key.plan);
    if checkpoints {
        vm = vm.with_checkpoint_every(cfg.checkpoint_every);
    }
    vm.heap.size_bytes = cfg.heap_bytes;
    vm
}

/// The distinct reference configurations of one matrix call: the
/// fault-free profile (every shape, no fault plan) and the faulty one
/// (every shape with each machine's straggler plan). Both fleets run
/// without transient fault rates, so these are all the plans there are.
pub fn ref_keys(cfg: &ClusterConfig) -> Vec<RefKey> {
    let mut keys: Vec<RefKey> = Vec::new();
    let add = |spes: u8, plan: FaultPlan, keys: &mut Vec<RefKey>| match keys
        .iter_mut()
        .find(|k| k.spes == spes && k.plan == plan)
    {
        Some(k) => k.runs_per_matrix += 1,
        None => keys.push(RefKey {
            spes,
            plan,
            runs_per_matrix: 1,
        }),
    };
    let plan_of = |m: usize| {
        cfg.slowdowns.iter().find(|s| s.0 == m).map_or(
            FaultPlan::default(),
            |&(_, factor, from)| {
                FaultPlan::default()
                    .with_slowdown(factor, from)
                    .expect("fleet slowdowns are valid")
            },
        )
    };
    for faulty in [false, true] {
        let mut seen: Vec<(u8, FaultPlan)> = Vec::new();
        for m in 0..cfg.machines {
            let k = (
                cfg.shape_of(m),
                if faulty {
                    plan_of(m)
                } else {
                    FaultPlan::default()
                },
            );
            if !seen.contains(&k) {
                seen.push(k);
                add(k.0, k.1, &mut keys);
            }
        }
    }
    keys
}

/// One checked reference run outside the fleet.
pub struct RefRun {
    pub secs: f64,
    pub stats: RunStats,
    pub checkpoints: Vec<CheckpointBlob>,
}

pub fn ref_run(class: &Class, vm: VmConfig, spans: &mut Spans) -> Result<RefRun, String> {
    let what = format!(
        "{} reference on {} SPEs",
        class.workload.name(),
        vm.cell.num_spes
    );
    let program = class.program.clone();
    let t0 = Instant::now();
    let jvm = spans
        .time("core.HeraJvm::new", || HeraJvm::new(program, vm))
        .map_err(|e| format!("{what}: construct: {e}"))?;
    let out = spans
        .time("core.HeraJvm::run", || jvm.run())
        .map_err(|e| format!("{what}: run: {e}"))?;
    let secs = secs(t0);
    if !out.is_clean() || out.result != Some(Value::I32(class.expected)) {
        return Err(format!(
            "{what}: result {:?} traps {:?}, host reference {}",
            out.result, out.traps, class.expected
        ));
    }
    Ok(RefRun {
        secs,
        stats: out.stats,
        checkpoints: out.checkpoints,
    })
}

/// Guest ops one matrix call retires in its reference runs, measured by
/// running every reference configuration once (checked) outside the
/// fleet. Crash re-runs and adoption proofs are not included.
pub fn reference_ops(
    cfg: &ClusterConfig,
    classes: &[Class],
    spans: &mut Spans,
) -> Result<u64, String> {
    let mut ops = 0;
    for key in ref_keys(cfg) {
        for class in classes {
            let r = ref_run(class, machine_vm(cfg, &key, true), spans)?;
            ops += key.runs_per_matrix * (r.stats.ppe.total_ops() + r.stats.spe.total_ops());
        }
    }
    Ok(ops)
}
