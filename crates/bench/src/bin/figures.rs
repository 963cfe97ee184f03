//! Regenerate every table and figure from the paper's evaluation (§4),
//! printing measured values next to the paper's reported ones.
//!
//! ```text
//! figures EXPERIMENT [--scale S]
//!
//! EXPERIMENT: all | fig4a | fig4b | fig5 | fig6 | fig7
//!           | ablate-data | ablate-jit | adaptive-cache | placement
//!           | cellvm-sync
//!           | trace [WORKLOAD]   (emit a Chrome/Perfetto trace + summary)
//!           | chaos [WORKLOAD]   (fault-injection run + recovery report)
//!           | chaos-crash [WORKLOAD]  (kill the whole machine mid-run, restore
//!                                     from the latest checkpoint, report the
//!                                     recovery cost in virtual cycles)
//!           | perf [--reps N] [--workers W]
//!                     (host wall-clock bench; write BENCH_interp.json, or
//!                      BENCH_par.json when W > 1 routes runs through the
//!                      parallel host engine)
//!           | perf-gate [--reps N] [--workers W]
//!                     (compare a fresh perf run to the committed
//!                      BENCH_interp.json; exit 1 if virtual metrics moved.
//!                      With W > 1, also gate against BENCH_par.json: virtual
//!                      metrics must match both snapshots, and on a host with
//!                      ≥W CPUs the 6-SPE mandelbrot cell must be ≥2x faster
//!                      than the committed sequential host time)
//!           | profile [WORKLOAD]       (per-method cost profile + collapsed stacks)
//!           | profile-diff [WORKLOAD]  (diff the PPE profile against 6 SPEs)
//!           | cluster [--machines N] [--requests N] [--seed S]
//!                     (fleet simulation: request trace, load balancing, crash
//!                      recovery, live migration; replayed twice and compared)
//!           | cluster-chaos [--machines N] [--requests N] [--seed S]
//!                     (resilience matrix: fault-free baseline plus every
//!                      ± breakers / ± hedging / ± shedding combination under
//!                      one 4x straggler and a seeded crash storm; replayed
//!                      twice, byte-compared, and gated on the E13 acceptance
//!                      bounds; writes cluster_chaos.txt)
//!           | fleet-trace [--machines N] [--requests N] [--seed S]
//!                     (E13 chaos matrix with hera-scope tracing on: per-request
//!                      span trees, causal flow arrows, fixed-virtual-interval
//!                      fleet samplers; replayed twice and byte-compared; writes
//!                      fleet_trace.json + fleet_slo.txt)
//!           | cluster-rebal [--machines N] [--requests N] [--seed S]
//!                     (E15 proactive-degradation matrix: heterogeneous
//!                      2/4/6-SPE fleet under a straggler + crash storm;
//!                      reactive resilience vs breaker/slowdown-triggered
//!                      drains vs drains + auto-rebalancer; replayed twice,
//!                      byte-compared, gated on p99/goodput and cross-shape
//!                      adoption proofs; writes cluster_rebal.txt)
//! ```
//!
//! Absolute cycle counts are simulator cycles (calibrated cost model,
//! not hardware measurements); the claims under reproduction are the
//! *shapes*: who wins, by roughly what factor, and where the knees fall.

use hera_bench as xb;
use hera_cluster::ClusterConfig;

const EXPERIMENTS: &[&str] = &[
    "all",
    "fig4a",
    "fig4b",
    "fig5",
    "fig6",
    "fig7",
    "ablate-data",
    "ablate-jit",
    "adaptive-cache",
    "placement",
    "cellvm-sync",
    "trace",
    "chaos",
    "chaos-crash",
    "perf",
    "perf-gate",
    "profile",
    "profile-diff",
    "cluster",
    "cluster-chaos",
    "fleet-trace",
    "cluster-rebal",
];

fn usage_lines() -> String {
    format!(
        "usage: figures EXPERIMENT [--scale S] [--reps N] [--workers W] \
         [--machines N] [--requests N] [--seed S]\n\
         experiments: {}\n\
         trace/chaos/chaos-crash/profile/profile-diff take an optional WORKLOAD\n\
         (compress | mpegaudio | mandelbrot)",
        EXPERIMENTS.join(" | ")
    )
}

fn usage_and_exit(problem: &str) -> ! {
    eprintln!("figures: {problem}");
    eprintln!("{}", usage_lines());
    std::process::exit(2);
}

fn help_and_exit() -> ! {
    println!("{}", usage_lines());
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut workload = "mandelbrot".to_string();
    let mut scale = xb::DEFAULT_SCALE;
    let mut scale_set = false;
    let mut reps = 3u32;
    let mut workers = 1u32;
    let mut machines = 4usize;
    let mut machines_set = false;
    let mut requests = 400u64;
    let mut requests_set = false;
    let mut seed = 42u64;
    let mut i = 0;
    let flag = |args: &[String], i: usize, name: &str| -> String {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage_and_exit(&format!("{name} needs a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = flag(&args, i, "--scale")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--scale needs a number"));
                scale_set = true;
                i += 1;
            }
            "--reps" => {
                reps = flag(&args, i, "--reps")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--reps needs an integer"));
                i += 1;
            }
            "--workers" => {
                workers = flag(&args, i, "--workers")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--workers needs an integer"));
                if workers == 0 {
                    usage_and_exit("--workers must be at least 1");
                }
                i += 1;
            }
            "--machines" => {
                machines = flag(&args, i, "--machines")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--machines needs an integer"));
                machines_set = true;
                i += 1;
            }
            "--requests" => {
                requests = flag(&args, i, "--requests")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--requests needs an integer"));
                requests_set = true;
                i += 1;
            }
            "--seed" => {
                seed = flag(&args, i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--seed needs an integer"));
                i += 1;
            }
            "--help" | "-h" => help_and_exit(),
            other => match &which {
                None => {
                    if !EXPERIMENTS.contains(&other) {
                        usage_and_exit(&format!("unknown experiment '{other}'"));
                    }
                    which = Some(other.to_string());
                }
                Some(w)
                    if matches!(
                        w.as_str(),
                        "trace" | "chaos" | "chaos-crash" | "profile" | "profile-diff"
                    ) =>
                {
                    workload = other.to_string();
                }
                Some(_) => usage_and_exit(&format!("unexpected argument '{other}'")),
            },
        }
        i += 1;
    }
    let Some(which) = which else {
        usage_and_exit("no experiment named");
    };

    if which == "trace" {
        trace_workload(&workload, scale);
        return;
    }
    if which == "chaos" {
        chaos(&workload, scale);
        return;
    }
    if which == "chaos-crash" {
        chaos_crash(&workload, scale);
        return;
    }
    if which == "perf" {
        perf(scale, reps, workers);
        return;
    }
    if which == "perf-gate" {
        if workers > 1 {
            perf_gate_par(scale, reps, workers);
        } else {
            perf_gate(scale, reps);
        }
        return;
    }
    if which == "profile" {
        profile(&workload, scale);
        return;
    }
    if which == "profile-diff" {
        profile_diff(&workload, scale);
        return;
    }
    if which == "cluster" {
        // The fleet's default scale is the smallest the workloads support:
        // cluster cost is requests x machines, not one big run.
        cluster(
            machines,
            requests,
            seed,
            if scale_set { scale } else { 0.05 },
        );
        return;
    }
    if which == "cluster-chaos" {
        // E13's committed configuration: a 6-machine fleet gives the
        // resilience stack the redundancy it needs to absorb a straggler
        // plus a crash storm (with 4 machines the post-crash fleet is
        // transiently over-committed and no knob can help).
        cluster_chaos(
            if machines_set { machines } else { 6 },
            if requests_set { requests } else { 800 },
            seed,
            if scale_set { scale } else { 0.02 },
        );
        return;
    }
    if which == "fleet-trace" {
        // Same committed E13 configuration, with hera-scope on.
        fleet_trace(
            if machines_set { machines } else { 6 },
            if requests_set { requests } else { 800 },
            seed,
            if scale_set { scale } else { 0.02 },
        );
        return;
    }
    if which == "cluster-rebal" {
        // E15's committed configuration: six machines of mixed shape so
        // crash recovery and drains land snapshots on machines with
        // fewer SPEs than the source.
        cluster_rebal(
            if machines_set { machines } else { 6 },
            if requests_set { requests } else { 600 },
            seed,
            if scale_set { scale } else { 0.02 },
        );
        return;
    }

    let all = which == "all";
    if all || which == "fig4a" {
        fig4a(scale);
    }
    if all || which == "fig4b" {
        fig4b(scale);
    }
    if all || which == "fig5" {
        fig5(scale);
    }
    if all || which == "fig6" {
        fig6(scale);
    }
    if all || which == "fig7" {
        fig7(scale);
    }
    if all || which == "ablate-data" {
        ablate_data(scale);
    }
    if all || which == "ablate-jit" {
        ablate_jit(scale);
    }
    if all || which == "adaptive-cache" {
        adaptive_cache(scale);
    }
    if all || which == "placement" {
        placement(scale);
    }
    if all || which == "cellvm-sync" {
        cellvm_sync();
    }
}

fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

fn find_workload(name: &str) -> hera_workloads::Workload {
    hera_workloads::Workload::ALL
        .iter()
        .copied()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| {
            eprintln!("unknown workload '{name}' (expected: compress | mpegaudio | mandelbrot)");
            std::process::exit(2);
        })
}

fn trace_workload(name: &str, scale: f64) {
    let w = find_workload(name);
    header(&format!(
        "hera-trace: {} on 6 pinned SPEs (virtual-time event trace)",
        w.name()
    ));
    let (out, names) = xb::trace_workload(w, 6, scale, xb::spe_config(6));
    let json = hera_trace::chrome_trace_json_with(&out.trace, &|m| {
        names
            .get(m as usize)
            .cloned()
            .unwrap_or_else(|| format!("m{m}"))
    });
    let path = format!("trace_{}.json", w.name());
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    print!("{}", hera_trace::text_summary(&out.trace));
    println!();
    println!(
        "wrote {path} ({} bytes) — open in chrome://tracing or https://ui.perfetto.dev",
        json.len()
    );
}

fn chaos(name: &str, scale: f64) {
    let w = find_workload(name);
    const SEED: u64 = 0xC0FFEE;
    const DEATH_SPE: u8 = 2;
    let death_at = xb::chaos_death_cycle(scale);
    header(&format!(
        "chaos: {} on 6 SPEs, seed {SEED:#x}, SPE {DEATH_SPE} dies at cycle {death_at}",
        w.name()
    ));

    // Quiet reference first: the overhead column needs a baseline, and
    // the run doubles as proof that the empty-plan path is untouched.
    let quiet = xb::run_workload(w, 6, scale, xb::spe_config(6));
    let out = xb::chaos_workload(w, scale, xb::chaos_plan(SEED, DEATH_SPE, death_at));
    let f = &out.stats.faults;

    println!("checksum verified: the run completed correctly on the surviving cores");
    println!(
        "injected: {} total ({} mfc-transfer, {} eib-timeout, {} ls-corruption, \
         {} proxy-timeout, {} migration-timeout)",
        f.total_injected(),
        f.injected_mfc_transfer,
        f.injected_eib_timeout,
        f.injected_ls_corruption,
        f.injected_proxy_timeout,
        f.injected_migration_timeout
    );
    println!(
        "recovered: {} MFC retries costing {} backoff cycles, {} watchdog cycles, \
         {} unrecoverable",
        f.mfc_retries, f.backoff_cycles, f.watchdog_cycles, f.unrecoverable
    );
    for &(spe, at) in &f.deaths {
        println!(
            "fail-over: SPE {spe} died with its clock frozen at {at}; \
             {} thread(s) drained to the PPE, {} dirty bytes salvaged",
            f.drained_threads, f.salvaged_bytes
        );
    }
    println!(
        "wall cycles: {} quiet vs {} under chaos ({:+.2}% recovery overhead)",
        quiet.stats.wall_cycles,
        out.stats.wall_cycles,
        100.0 * (out.stats.wall_cycles as f64 / quiet.stats.wall_cycles as f64 - 1.0)
    );
    println!(
        "trace: {} events across {} lanes (same seed ⇒ byte-identical rerun)",
        out.trace.event_count(),
        out.trace.lanes().len()
    );

    // The claims above are load-bearing for CI: prove them, don't just
    // print them. Recovery must leave the machine computing the same
    // answer as the quiet run (the heap *layout* legitimately differs
    // once threads drain to the PPE), and the same seed must replay the
    // whole run — final heap digest and every trace lane — to the bit.
    if out.result != quiet.result {
        eprintln!(
            "chaos: recovered run diverged from the uninterrupted run \
             (result {:?} vs {:?})",
            out.result, quiet.result
        );
        std::process::exit(1);
    }
    let rerun = xb::chaos_workload(w, scale, xb::chaos_plan(SEED, DEATH_SPE, death_at));
    if rerun.heap_digest != out.heap_digest || rerun.trace != out.trace {
        eprintln!("chaos: rerun with the same seed diverged — determinism broken");
        std::process::exit(1);
    }
    println!("verified: recovery matches the quiet result; same-seed rerun is byte-identical");
}

fn chaos_crash(name: &str, scale: f64) {
    let w = find_workload(name);
    const SEED: u64 = 0xC0FFEE;
    // Transient faults stay armed throughout: crash recovery has to
    // compose with the rest of the chaos machinery, not replace it.
    let plan = hera_cell::FaultPlan::seeded(SEED)
        .with_mfc_faults(400, 250, 150)
        .expect("valid fault rates")
        .with_proxy_faults(500);

    // Probe for the wall clock so the crash lands at a deterministic
    // fraction of the run regardless of workload and scale.
    let probe = xb::run_workload(w, 6, scale, xb::spe_config(6).with_faults(plan));
    let wall = probe.stats.wall_cycles;
    let every = (wall / 4).max(10_000);
    let crash_at = wall * 2 / 3;
    header(&format!(
        "chaos-crash: {} on 6 SPEs, seed {SEED:#x}, checkpoint every {every} cycles, \
         machine dies at cycle {crash_at}",
        w.name()
    ));

    let dir = std::path::PathBuf::from(format!("target/chaos-ckpt-{}", std::process::id()));
    match xb::crash_and_recover(w, scale, plan, every, crash_at, &dir) {
        Ok(r) => {
            println!("crash: whole machine died at cycle {}", r.crash_cycle);
            println!(
                "checkpoints: {} on disk; restored from seq {} taken at cycle {}",
                r.checkpoints_on_disk, r.restored_seq, r.restored_cycle
            );
            println!(
                "recovery cost: {} re-executed cycles (restore point → crash) \
                 + {} checkpoint-write cycles charged as PPE stall \
                 = {} virtual cycles ({:.2}% of the {}-cycle uninterrupted run)",
                r.reexecuted_cycles(),
                r.checkpoint_write_cycles(),
                r.recovery_cost_cycles(),
                100.0 * r.recovery_cost_cycles() as f64 / r.reference.stats.wall_cycles as f64,
                r.reference.stats.wall_cycles
            );
            println!(
                "verified: recovered run bit-identical to the uninterrupted run \
                 from the restore point on (result, heap, stats, metrics, trace)"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        Err(e) => {
            eprintln!("chaos-crash FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// The shared driver of the fleet experiments: run `run`, print the first
/// of the outputs `check` renders, replay it, and exit unless every output
/// replays byte-identically and `check` lists no failures. Exit 2 if it
/// cannot run at all, 1 on a diverged replay or any failure.
fn replay_checked<R>(
    cmd: &str,
    kind: &str,
    run: impl Fn() -> Result<R, hera_cluster::ClusterError>,
    check: fn(&R) -> (Vec<String>, &[String]),
) -> (R, Vec<String>) {
    let first = run().unwrap_or_else(|e| {
        eprintln!("{cmd}: {e}");
        std::process::exit(2);
    });
    let (out, failed) = check(&first);
    print!("{}", out[0]);
    // Every fleet experiment is claimed to be a pure function of its
    // config: replay it and require byte-identical outputs.
    let replay = run().unwrap_or_else(|e| {
        eprintln!("{cmd}: replay errored: {e}");
        std::process::exit(1);
    });
    if check(&replay).0 != out {
        eprintln!("{cmd}: same-seed replay diverged — determinism broken");
        std::process::exit(1);
    }
    if !failed.is_empty() {
        for f in failed {
            eprintln!("{cmd} FAIL: {f}");
        }
        eprintln!(
            "{cmd}: {} {kind} failure(s) — see report above",
            failed.len()
        );
        std::process::exit(1);
    }
    (first, out)
}

/// Print every failed acceptance gate's message; exit 1 if any failed.
fn gates(checks: Vec<(bool, String)>) {
    let mut failed = false;
    for (ok, msg) in checks {
        if !ok {
            eprintln!("{msg}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Write a fleet artifact to `path` and say so, followed by `note`.
fn write_artifact(path: &str, text: &str, note: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path} ({} bytes){note}", text.len());
}

fn cluster(machines: usize, requests: u64, seed: u64, scale: f64) {
    let cfg = ClusterConfig {
        seed,
        machines,
        requests,
        scale,
        ..ClusterConfig::default()
    };
    header(&format!(
        "hera-cluster: fleet simulation ({machines} machines, {requests} requests, seed {seed})"
    ));
    replay_checked(
        "cluster",
        "bit-identity/bookkeeping",
        || hera_cluster::run_experiment(&cfg),
        |r| (vec![r.render()], &r.failures),
    );
    println!(
        "verified: every migration and recovery bit-identical to the unmigrated runs; \
         same-seed replay byte-identical"
    );
}

/// The committed E13 configuration: a 2-SPE fleet with one 4x straggler
/// and a seeded two-crash storm.
fn e13_config(machines: usize, requests: u64, seed: u64, scale: f64) -> ClusterConfig {
    ClusterConfig {
        seed,
        machines,
        requests,
        threads: 2,
        scale,
        num_spes: 2,
        heap_bytes: 1 << 20,
        utilization_pct: 60,
        crashes: hera_cluster::crash_storm(seed, machines, 2, 300, 700),
        migrations: vec![],
        slowdowns: vec![(0, 4, 0)],
        ..ClusterConfig::default()
    }
}

fn cluster_chaos(machines: usize, requests: u64, seed: u64, scale: f64) {
    let cfg = e13_config(machines, requests, seed, scale);
    header(&format!(
        "hera-resil: chaos matrix ({machines} machines, {requests} requests, seed {seed}, \
         one 4x straggler + two-crash storm)"
    ));
    let (first, out) = replay_checked(
        "cluster-chaos",
        "bit-identity/bookkeeping",
        || hera_cluster::run_chaos_matrix(&cfg),
        |r| (vec![r.render()], &r.failures),
    );
    // E13 acceptance: the full stack must hold the tail and the goodput
    // under faults, and the unprotected fleet must demonstrably not.
    // Rows: fault-free baseline, faults with resilience off, ..., all knobs on.
    let (base, off) = (&first.rows[0], &first.rows[1]);
    let full = first.rows.last().expect("matrix has rows");
    let bound = 2 * base.p99;
    gates(vec![
        (
            full.p99 <= bound,
            format!(
                "cluster-chaos FAIL: full-resilience p99 {} exceeds 2x the fault-free \
                 baseline ({} vs bound {})",
                full.p99, base.p99, bound
            ),
        ),
        (
            full.goodput_permille() >= 900,
            format!(
                "cluster-chaos FAIL: full-resilience goodput {}‰ below the 900‰ floor",
                full.goodput_permille()
            ),
        ),
        (
            off.p99 > bound,
            format!(
                "cluster-chaos FAIL: the unprotected fleet held p99 {} within the 2x bound \
                 {} — the fault schedule is too gentle to demonstrate anything",
                off.p99, bound
            ),
        ),
    ]);
    let summary = format!(
        "verified: same-seed replay byte-identical; full resilience holds p99 to \
         {:.2}x the fault-free baseline (unprotected: {:.2}x) at {}.{}% goodput\n",
        full.p99 as f64 / base.p99.max(1) as f64,
        off.p99 as f64 / base.p99.max(1) as f64,
        full.goodput_permille() / 10,
        full.goodput_permille() % 10
    );
    print!("{summary}");
    write_artifact("cluster_chaos.txt", &format!("{}{summary}", out[0]), "");
}

fn cluster_rebal(machines: usize, requests: u64, seed: u64, scale: f64) {
    use hera_cluster::MachineShape;
    // E15: the E13 straggler and crash storm on a heterogeneous fleet —
    // machine 0 is the big straggler, and the 2/4-SPE machines force
    // crash recoveries and drains through the cross-shape adoption path
    // (snapshot from a 6-SPE machine adopted on a smaller one, dropped
    // SPEs drained to the PPE).
    let spes: Vec<u8> = (0..machines)
        .map(|m| match m % 6 {
            0 | 5 => 6,
            1 | 3 => 2,
            _ => 4,
        })
        .collect();
    let cfg = ClusterConfig {
        num_spes: 6,
        // Hot enough that join-shortest-queue must sometimes queue work
        // on the capacity-penalized straggler — that backlog is what the
        // proactive layer exists to move.
        utilization_pct: 75,
        shapes: spes
            .iter()
            .map(|&s| MachineShape { spe_count: s })
            .collect(),
        migrations: vec![(0, 450), (5, 550)],
        scope: true,
        ..e13_config(machines, requests, seed, scale)
    };
    header(&format!(
        "hera-rebal: proactive degradation ({machines} machines, shapes {spes:?}, \
         {requests} requests, seed {seed}, one 4x straggler + two-crash storm)"
    ));
    // Proactive decisions (drain triggers, rebalance moves) must be pure
    // functions of the config, so the whole matrix replays byte-identically.
    let (first, out) = replay_checked(
        "cluster-rebal",
        "adoption-proof/ledger",
        || hera_cluster::run_rebal_matrix(&cfg),
        |r| (vec![r.render()], &r.failures),
    );
    // E15 acceptance: acting on health signals *before* requests fail
    // must not be worse than waiting for them to fail, and the
    // heterogeneous fleet must actually exercise cross-shape adoption.
    // Rows: fault-free baseline, reactive only, drains, drains + rebalancer.
    let reactive = &first.rows[1];
    let proactive = first.rows.last().expect("matrix has rows");
    let pstats = first.stats.last().expect("matrix has rows");
    gates(vec![
        (
            proactive.p99 <= reactive.p99,
            format!(
                "cluster-rebal FAIL: proactive p99 {} worse than reactive-only {}",
                proactive.p99, reactive.p99
            ),
        ),
        (
            proactive.goodput_permille() >= reactive.goodput_permille(),
            format!(
                "cluster-rebal FAIL: proactive goodput {}‰ below reactive-only {}‰",
                proactive.goodput_permille(),
                reactive.goodput_permille()
            ),
        ),
        (
            pstats.cross_shape > 0,
            "cluster-rebal FAIL: no cross-shape adoption was exercised — the fleet \
             shapes or the fault schedule are too gentle to prove anything"
                .into(),
        ),
        (
            pstats.drains > 0,
            "cluster-rebal FAIL: the proactive row never drained anything".into(),
        ),
    ]);
    let summary = format!(
        "verified: same-seed replay byte-identical; proactive p99 {:.2}x reactive \
         ({} vs {}) at {}.{}% goodput; {} drains, {} rebalance moves, {} cross-shape \
         adoptions proven by replay determinism\n",
        proactive.p99 as f64 / reactive.p99.max(1) as f64,
        proactive.p99,
        reactive.p99,
        proactive.goodput_permille() / 10,
        proactive.goodput_permille() % 10,
        pstats.drains,
        pstats.moves,
        pstats.cross_shape
    );
    print!("{summary}");
    write_artifact("cluster_rebal.txt", &format!("{}{summary}", out[0]), "");
}

fn fleet_trace(machines: usize, requests: u64, seed: u64, scale: f64) {
    // The committed E13 configuration with hera-scope switched on: the
    // all-knobs-on matrix row's span tree, flow arrows, and telemetry
    // timelines are the artifacts.
    let cfg = ClusterConfig {
        scope: true,
        ..e13_config(machines, requests, seed, scale)
    };
    header(&format!(
        "hera-scope: fleet trace ({machines} machines, {requests} requests, seed {seed}, \
         E13 chaos matrix with request tracing on)"
    ));
    // Determinism is the artifact's warranty: every byte of the report,
    // the Chrome trace, and the SLO table must replay identically.
    let (_, out) = replay_checked(
        "fleet-trace",
        "reconciliation/bookkeeping",
        || hera_cluster::run_chaos_matrix(&cfg),
        |r| {
            let scope = r.scope.as_ref().unwrap_or_else(|| {
                eprintln!("fleet-trace: matrix ran with scope on but produced no ScopeOutcome");
                std::process::exit(1);
            });
            let slo = scope.slo_report();
            let shown = format!(
                "{}{slo}scope: {} spans, {} flow arrows across {} tracks; {} telemetry series\n",
                r.render(),
                scope.spans.len(),
                scope.flows.len(),
                scope.tracks.len(),
                scope.metrics.series().count()
            );
            (vec![shown, scope.chrome_json(), slo], &r.failures)
        },
    );
    let viewers = " — open in chrome://tracing or https://ui.perfetto.dev";
    write_artifact("fleet_trace.json", &out[1], viewers);
    write_artifact("fleet_slo.txt", &out[2], "");
    println!(
        "verified: span ledger reconciles exactly against the policy counters; \
         same-seed replay byte-identical (report, trace, SLO table)"
    );
}

fn perf(scale: f64, reps: u32, workers: u32) {
    if workers > 1 {
        header(&format!(
            "parallel engine host performance ({workers} host workers on {} CPUs, \
             best of {reps}; virtual cycles must not move)",
            xb::host_cpus()
        ));
    } else {
        header(&format!(
            "engine host performance (best of {reps}; virtual cycles must not move)"
        ));
    }
    println!(
        "{:<11} {:<5} {:>14} {:>14} {:>12} {:>9} {:>9}",
        "benchmark", "cfg", "host ns", "virt cycles", "guest ops", "ns/op", "speedup"
    );
    let seq_baseline: Vec<xb::BaselineRow> = if workers > 1 {
        // The parallel table's speedup column is vs the committed
        // sequential snapshot — the number the refactor exists to move.
        std::fs::read_to_string("BENCH_interp.json")
            .map(|s| xb::parse_bench_json(&s))
            .unwrap_or_default()
    } else {
        Vec::new()
    };
    let rows = xb::perf_par(scale, reps, workers);
    for r in &rows {
        // The recorded baselines are full-scale numbers; comparing a
        // reduced-scale run against them would be meaningless.
        let speedup = if scale != xb::DEFAULT_SCALE {
            "-".into()
        } else if workers > 1 {
            seq_baseline
                .iter()
                .find(|b| b.workload == r.workload.name() && b.config == r.config)
                .map(|b| format!("{:.2}x", b.host_ns as f64 / r.host_ns.max(1) as f64))
                .unwrap_or_else(|| "-".into())
        } else {
            xb::perf_baseline_ns(r.workload.name(), r.config)
                .map(|base| format!("{:.2}x", base as f64 / r.host_ns as f64))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:<11} {:<5} {:>14} {:>14} {:>12} {:>9.3} {:>9}",
            r.workload.name(),
            r.config,
            r.host_ns,
            r.wall_cycles,
            r.guest_ops,
            r.ns_per_op,
            speedup
        );
    }
    if scale == xb::DEFAULT_SCALE && workers > 1 {
        let json = xb::perf_par_json(&rows, workers, &seq_baseline);
        std::fs::write("BENCH_par.json", &json)
            .unwrap_or_else(|e| panic!("write BENCH_par.json: {e}"));
        println!(
            "(speedup is vs the committed sequential BENCH_interp.json; wrote BENCH_par.json)"
        );
    } else if scale == xb::DEFAULT_SCALE {
        let json = xb::perf_json(&rows);
        std::fs::write("BENCH_interp.json", &json)
            .unwrap_or_else(|e| panic!("write BENCH_interp.json: {e}"));
        println!("(speedup is vs the tagged Value-frame engine; wrote BENCH_interp.json)");
    } else {
        println!(
            "(speedup columns compare full-scale snapshots; \
             snapshot not written at scale {scale})"
        );
    }
}

fn profile(name: &str, scale: f64) {
    let w = find_workload(name);
    header(&format!(
        "hera-prof: {} on 6 pinned SPEs (per-method virtual-cycle profile)",
        w.name()
    ));
    let (out, names) = xb::profile_workload(w, 6, scale, xb::spe_config(6));
    let prof = out.profile.expect("profiling was enabled");
    let resolve = |m| hera_prof::method_name(&names, m);
    print!("{}", prof.top_table(15, &resolve));
    let attributed: u64 = prof.totals().iter().map(|c| c.total()).sum();
    let charged = out.stats.ppe.total_cycles() + out.stats.spe.total_cycles();
    if attributed != charged {
        println!(
            "reconciliation: attributed {attributed} cycles, RunStats charged {charged} \
             — MISMATCH (simulator bug)"
        );
        std::process::exit(1);
    }
    println!("reconciliation: attributed {attributed} cycles, RunStats charged {charged} (exact)");
    let folded = prof.collapsed(&resolve);
    let path = format!("profile_{}.folded", w.name());
    std::fs::write(&path, &folded).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "wrote {path} ({} stacks) — collapsed format, feed to inferno or flamegraph.pl",
        folded.lines().count()
    );
}

fn profile_diff(name: &str, scale: f64) {
    let w = find_workload(name);
    header(&format!(
        "hera-prof diff: {} on the PPE (1 thread) vs 6 SPEs (6 threads)",
        w.name()
    ));
    let (ppe, names) = xb::profile_workload(w, 1, scale, xb::ppe_config());
    let (spe6, _) = xb::profile_workload(w, 6, scale, xb::spe_config(6));
    let before = ppe.profile.expect("profiling was enabled");
    let after = spe6.profile.expect("profiling was enabled");
    let resolve = |m| hera_prof::method_name(&names, m);
    print!(
        "{}",
        before.diff_table(&after, ("ppe", "spe6"), 20, &resolve)
    );
    println!("(positive delta: the method costs more cycles in the 6-SPE configuration)");
}

fn perf_gate(scale: f64, reps: u32) {
    if scale != xb::DEFAULT_SCALE {
        eprintln!(
            "perf-gate compares against the committed full-scale BENCH_interp.json; \
             refusing to gate at scale {scale}"
        );
        std::process::exit(2);
    }
    header(&format!(
        "perf regression gate (best of {reps} vs committed BENCH_interp.json)"
    ));
    let committed = std::fs::read_to_string("BENCH_interp.json").unwrap_or_else(|e| {
        eprintln!("read BENCH_interp.json: {e} (run `figures -- perf` to create it)");
        std::process::exit(2);
    });
    let baseline = xb::parse_bench_json(&committed);
    if baseline.is_empty() {
        eprintln!("BENCH_interp.json parsed to zero rows — regenerate with `figures -- perf`");
        std::process::exit(2);
    }
    let rows = xb::perf_interp(scale, reps);
    let report = xb::perf_gate(&baseline, &rows, 0.25);
    println!(
        "checked {} cells: wall_cycles and guest_ops exact, host_ns ±25% advisory",
        report.checked
    );
    for w in &report.warnings {
        println!("warning: {w}");
    }
    for f in &report.failures {
        println!("FAIL: {f}");
    }
    if report.passed() {
        println!("perf gate passed — virtual metrics identical to the committed snapshot");
    } else {
        println!(
            "perf gate FAILED ({} mismatches) — if the change is intentional, \
             regenerate the snapshot with `figures -- perf`",
            report.failures.len()
        );
        std::process::exit(1);
    }
}

fn perf_gate_par(scale: f64, reps: u32, workers: u32) {
    if scale != xb::DEFAULT_SCALE {
        eprintln!(
            "perf-gate compares against committed full-scale snapshots; \
             refusing to gate at scale {scale}"
        );
        std::process::exit(2);
    }
    header(&format!(
        "parallel perf gate ({workers} host workers on {} CPUs, best of {reps} \
         vs committed BENCH_interp.json + BENCH_par.json)",
        xb::host_cpus()
    ));
    let read = |path: &str| -> Vec<xb::BaselineRow> {
        let committed = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("read {path}: {e} (run `figures -- perf` to create it)");
            std::process::exit(2);
        });
        let rows = xb::parse_bench_json(&committed);
        if rows.is_empty() {
            eprintln!("{path} parsed to zero rows — regenerate with `figures -- perf`");
            std::process::exit(2);
        }
        rows
    };
    let seq = read("BENCH_interp.json");
    let par = read("BENCH_par.json");
    let rows = xb::perf_par(scale, reps, workers);
    let report = xb::perf_gate_par(&seq, &par, &rows, workers, 0.25, 2.0);
    println!(
        "checked {} cells: wall_cycles and guest_ops exact against both snapshots, \
         host_ns ±25% advisory, mandelbrot/spe6 speedup ≥2.0x where the host allows",
        report.checked
    );
    for w in &report.warnings {
        println!("warning: {w}");
    }
    for f in &report.failures {
        println!("FAIL: {f}");
    }
    if report.passed() {
        println!(
            "parallel perf gate passed — virtual time is worker-count independent \
             and matches both committed snapshots"
        );
    } else {
        println!(
            "parallel perf gate FAILED ({} mismatches) — if the change is intentional, \
             regenerate the snapshot with `figures -- perf --workers {workers}`",
            report.failures.len()
        );
        std::process::exit(1);
    }
}

fn fig4a(scale: f64) {
    header("Figure 4(a): SPE / PPE performance (speedup relative to the PPE)");
    println!(
        "{:<11} {:>14} {:>14} {:>14}   {:>8} {:>8}   {:>8} {:>8}",
        "benchmark", "PPE cycles", "1 SPE cycles", "6 SPE cycles", "1SPE", "paper", "6SPE", "paper"
    );
    for r in xb::figure4a(scale) {
        println!(
            "{:<11} {:>14} {:>14} {:>14}   {:>7.2}x {:>7.2}x   {:>7.2}x {:>7.2}x",
            r.workload.name(),
            r.ppe_cycles,
            r.spe1_cycles,
            r.spe6_cycles,
            r.rel_1spe,
            r.paper_1spe,
            r.rel_6spe,
            r.paper_6spe
        );
    }
    println!("(paper columns read off Figure 4(a); shape, not absolute match, is the claim)");
}

fn fig4b(scale: f64) {
    header("Figure 4(b): scalability over SPE cores (speedup vs 1 SPE)");
    println!(
        "{:<11} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "benchmark", "1", "2", "3", "4", "5", "6"
    );
    for s in xb::figure4b(scale) {
        print!("{:<11}", s.workload.name());
        for v in &s.speedup {
            print!(" {v:>6.2}x");
        }
        println!();
    }
    println!("(paper: all three scale; mandelbrot closest to linear, mpegaudio ~4.6x at 6)");
}

fn fig5(scale: f64) {
    header("Figure 5: proportion of SPE cycles per operation type (%)");
    println!(
        "{:<11} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "benchmark", "FP", "int", "branch", "stack", "local", "mainmem"
    );
    for r in xb::figure5(scale) {
        println!(
            "{:<11} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            r.workload.name(),
            r.percent[0],
            r.percent[1],
            r.percent[2],
            r.percent[3],
            r.percent[4],
            r.percent[5]
        );
    }
    println!("(paper claims: mandelbrot has by far the largest FP share;");
    println!(" compress spends more cycles on main memory than the others)");
}

fn sweep(series: &[xb::SweepSeries], note: &str) {
    print!("{:<16}", "size KiB");
    for p in &series[0].points {
        print!(" {:>6}", p.size_kb);
    }
    println!();
    for s in series {
        print!("{:<16}", format!("{} perf", s.workload.name()));
        for p in &s.points {
            print!(" {:>6.2}", p.perf_rel);
        }
        println!();
        print!("{:<16}", format!("{} hit", s.workload.name()));
        for p in &s.points {
            print!(" {:>6.3}", p.hit_rate);
        }
        println!();
    }
    println!("({note})");
}

fn fig6(scale: f64) {
    header("Figure 6: data-cache size sweep (perf relative to 104 KiB; hit rate)");
    sweep(
        &xb::figure6(scale),
        "paper: compress degrades steepest with the lowest hit rate; mpegaudio is insensitive",
    );
}

fn fig7(scale: f64) {
    header("Figure 7: code-cache size sweep (perf relative to 88 KiB; method hit rate)");
    sweep(
        &xb::figure7(scale),
        "paper: mpegaudio is the code-cache-sensitive benchmark; mandelbrot is flat",
    );
}

fn ablate_data(scale: f64) {
    header("E6 ablation: array block transfer size (3.2.1 design choice)");
    println!(
        "{:>10} {:>16} {:>16}",
        "block B", "compress cyc", "mpegaudio cyc"
    );
    for (bytes, compress, mpeg) in xb::ablate_block_size(scale) {
        println!("{bytes:>10} {compress:>16} {mpeg:>16}");
    }
    println!("(the paper picked 1 KiB; the sweep shows the trade-off it sits on)");
}

fn ablate_jit(scale: f64) {
    header("E7 ablation: per-core-type JIT vs eager dual compilation (3.1 claim)");
    let a = xb::ablate_jit(scale);
    println!(
        "on-demand: {} PPE methods + {} SPE methods, {} dual-compiled",
        a.ppe_compiled, a.spe_compiled, a.dual_compiled
    );
    println!(
        "compile cycles: on-demand {} vs eager-both {} ({:.1}% saved)",
        a.demand_cycles,
        a.eager_cycles,
        100.0 * (1.0 - a.demand_cycles as f64 / a.eager_cycles as f64)
    );
}

fn adaptive_cache(scale: f64) {
    header("E8 extension: adaptive data/code cache split (192 KiB budget)");
    for (w, splits, fixed) in xb::adaptive_cache_split(scale) {
        let best = splits
            .iter()
            .min_by_key(|&&(_, c)| c)
            .expect("non-empty sweep");
        println!(
            "{:<11} fixed 104/88: {:>12} cyc | best {}K data/{}K code: {:>12} cyc ({:+.1}%)",
            w.name(),
            fixed,
            best.0,
            192 - best.0,
            best.1,
            100.0 * (best.1 as f64 / fixed as f64 - 1.0)
        );
    }
    println!("(supports: \"adaptive sizing of the code and data caches would likely benefit many applications\")");
}

fn placement(scale: f64) {
    header("E9 extension: placement policies on a mixed FP+memory workload");
    let rows = xb::placement_comparison(scale);
    let worst = rows
        .iter()
        .map(|&(_, c, _)| c)
        .max()
        .expect("non-empty comparison") as f64;
    for (name, cycles, migrations) in rows {
        println!(
            "{name:<12} {cycles:>14} cycles  ({:.2}x vs worst, {migrations} migrations)",
            worst / cycles as f64
        );
    }
    println!("(annotations let the runtime put each phase on its best core type)");
}

fn cellvm_sync() {
    header("E10 extension: local SPE sync (Hera-JVM) vs PPE-proxied sync (CellVM-style)");
    println!(
        "{:>5} {:>16} {:>16} {:>10}",
        "SPEs", "Hera-JVM cyc", "CellVM-style", "slowdown"
    );
    for (n, hera, cellvm) in xb::sync_scalability(400) {
        println!(
            "{n:>5} {hera:>16} {cellvm:>16} {:>9.2}x",
            cellvm as f64 / hera as f64
        );
    }
    println!("(proxying every monitor op through the PPE costs 2-3x on sync-heavy code and");
    println!(" occupies the PPE full-time, supporting the paper's critique of CellVM's design)");
}
