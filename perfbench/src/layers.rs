//! The traced run: per-layer metrics, measured from outside the
//! simulator by timing calls into each crate's public functions and by
//! reading the counts its results already carry.
//!
//! The per-layer metric set is the same whichever workload is named: the
//! run attributes every layer on all three workloads (the named one is
//! only recorded in the manifest). Span recording is on throughout
//! except for the untraced grid passes its own overhead is measured
//! against.

use crate::fleet::{self, Fleet};
use crate::grid;
use crate::spans::Spans;
use crate::util::{mean, median, ns_per_call, secs, Metrics};
use crate::Tally;
use hera_cell::{CellConfig, CellMachine, CoreId, CoreKind, FaultPlan};
use hera_core::{HeraJvm, VmConfig};
use hera_isa::{ProgramBuilder, Ty, Value};
use hera_mem::{Heap, HeapConfig, ProgramLayout};
use hera_softcache::{CodeCache, DataCache};
use hera_workloads::Workload;
use std::hint::black_box;
use std::time::Instant;

pub fn traced(
    workload: &str,
    seed: u64,
    quick: bool,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    println!("traced run (named workload {workload}): attributing every layer");
    micro(quick, spans, &mut m);
    let gc = grid_layers(seed, quick, spans, tally, &mut m)?;
    let gc = gc + snap_layers(seed, quick, spans, tally, &mut m)?;
    m.put("mem.gc_collections", "count", gc as f64);
    cluster_layers(seed, quick, spans, tally, &mut m);
    Ok(m)
}

/// Layer microloops (the coverage of the criterion `micro` bench).
fn micro(quick: bool, spans: &mut Spans, m: &mut Metrics) {
    spans.begin_pass("micro");
    let batches = if quick { 2 } else { 7 };

    let mut machine = CellMachine::new(CellConfig::default());
    let ns = spans.time("cell.CellMachine::dma", || {
        ns_per_call(batches, 20_000, || {
            black_box(machine.dma(CoreId::Spe(0), black_box(1024))).expect("fault-free DMA");
        })
    });
    m.put("cell.dma_1k_ns", "ns", ns);

    let mut pb = ProgramBuilder::new();
    let class = pb.add_class("C", None);
    pb.add_field(class, "x", Ty::Int);
    let program = pb.finish().expect("one-field program");
    let layout = ProgramLayout::compute(&program);
    let mut heap = Heap::new(
        HeapConfig {
            size_bytes: 1 << 20,
        },
        layout.statics.size,
    );
    let mut machine = CellMachine::new(CellConfig::default());
    let obj = heap
        .alloc_object(&layout, class)
        .expect("room for one object");
    let size = layout.object_size(class);
    let mut dc = DataCache::new(32 << 10);
    let ns = spans.time("softcache.DataCache::read", || {
        ns_per_call(batches, 20_000, || {
            black_box(dc.read(
                &mut heap,
                &mut machine,
                CoreId::Spe(0),
                obj.0,
                size,
                8,
                Ty::Int,
            ))
            .expect("cached read");
        })
    });
    m.put("softcache.data_read_hit_ns", "ns", ns);

    let mut cc = CodeCache::new(64 << 10);
    let lookup = |cc: &mut CodeCache, machine: &mut CellMachine| {
        cc.lookup(
            machine,
            CoreId::Spe(0),
            hera_isa::ClassId(0),
            64,
            hera_isa::MethodId(0),
            512,
        )
        .expect("cached lookup");
    };
    let ns = spans.time("softcache.CodeCache::lookup", || {
        ns_per_call(batches, 20_000, || lookup(&mut cc, &mut machine))
    });
    m.put("softcache.code_lookup_warm_ns", "ns", ns);

    let (program, _) = Workload::Mandelbrot.build(1, 0.05);
    let layout = ProgramLayout::compute(&program);
    let pixel = program
        .method_by_name("Mandelbrot", "pixel", 3)
        .expect("Mandelbrot.pixel exists");
    let ns = spans.time("jit.compile_method", || {
        ns_per_call(batches, 200, || {
            black_box(hera_jit::compile_method(
                &program,
                &layout,
                pixel,
                CoreKind::Spe,
            ))
            .expect("pixel compiles");
        })
    });
    m.put("jit.compile_method_us", "us", ns / 1e3);

    let (program, _) = Workload::Compress.build(2, 0.05);
    let ns = spans.time("isa.verify_program", || {
        ns_per_call(batches, 20, || {
            black_box(hera_isa::verify_program(&program)).expect("compress verifies");
        })
    });
    m.put("isa.verify_us", "us", ns / 1e3);

    // Tracing on vs off on one small run, alternated.
    let (program, _) = Workload::Mandelbrot.build(1, 0.02);
    let mut on = Vec::new();
    let mut off = Vec::new();
    for i in 0..2 * batches {
        let cfg = VmConfig::pinned_spe(1);
        let cfg = if i % 2 == 1 { cfg.with_tracing() } else { cfg };
        let t0 = Instant::now();
        let out = HeraJvm::new(program.clone(), cfg)
            .and_then(|vm| vm.run())
            .expect("small mandelbrot runs");
        black_box(out.stats.wall_cycles);
        if i % 2 == 1 { &mut on } else { &mut off }.push(secs(t0));
    }
    m.put("trace.micro_ratio", "ratio", median(&on) / median(&off));
}

/// Untraced and traced grid passes, per-cell host time and
/// counts, and the hook-overhead ratios. Returns GC collections seen.
fn grid_layers(
    seed: u64,
    quick: bool,
    spans: &mut Spans,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<u64, String> {
    let scale = if quick { 0.05 } else { 1.0 };
    let committed = if quick {
        None
    } else {
        Some(grid::committed_rows()?)
    };
    spans.begin_pass("vm-grid setup");
    let mut build_ms = Vec::new();
    for w in Workload::ALL {
        for (_, threads, _) in grid::CONFIGS {
            let t0 = Instant::now();
            black_box(w.build(threads, scale));
            build_ms.push(secs(t0) * 1e3);
        }
    }
    m.put("workloads.build_ms", "ms", median(&build_ms));
    let cells = grid::setup(scale, committed.as_deref(), spans)?;

    // An untimed warm-up pass, then untraced and traced passes in ABBA
    // order so drift on the host cancels out of the span overhead.
    let mut traced_s = vec![Vec::new(); cells.len()];
    let mut stats = vec![None; cells.len()];
    let (mut on_s, mut off_s) = (0.0, 0.0);
    for (p, traced) in [None, Some(false), Some(true), Some(true), Some(false)]
        .into_iter()
        .enumerate()
    {
        spans.set_enabled(traced == Some(true));
        spans.begin_pass(format!("vm-grid pass {p}"));
        let (pass_s, results) = grid::pass(&cells, spans);
        match traced {
            Some(true) => on_s += pass_s,
            Some(false) => off_s += pass_s,
            None => {}
        }
        for (i, r) in results.into_iter().enumerate() {
            let Some(s) = tally.check(r) else { continue };
            if traced == Some(true) {
                traced_s[i].push(s.secs);
            }
            stats[i] = Some(s.stats);
        }
    }
    spans.set_enabled(true);
    m.put("bench.span_overhead_ratio", "ratio", on_s / off_s);

    let mut compilations = 0;
    let mut switches = 0;
    let mut migrations = 0;
    let mut gc = 0;
    for (i, cell) in cells.iter().enumerate() {
        let Some(st) = &stats[i] else { continue };
        let name = cell.name();
        let run_s = median(&traced_s[i]);
        let ops = st.ppe.total_ops() + st.spe.total_ops();
        m.put(format!("core.{name}.run_s"), "s", run_s);
        m.put(
            format!("core.{name}.ns_per_op"),
            "ns/op",
            run_s * 1e9 / ops.max(1) as f64,
        );
        compilations += st.registry.ppe_compilations + st.registry.spe_compilations;
        switches += st.thread_switches;
        migrations += st.migrations;
        gc += st.gc.collections;
        if cell.config == "ppe" {
            continue;
        }
        m.put(
            format!("cell.{name}.dma_transfers"),
            "count",
            st.bus.transfers as f64,
        );
        if cell.config == "spe6" {
            m.put(
                format!("cell.{name}.eib_queue_vcycles"),
                "vcycles",
                (st.bus.mean_queue_cycles * st.bus.transfers as f64).round(),
            );
        }
        let dc = &st.data_cache;
        let cc = &st.code_cache;
        let ratio = |hit: u64, miss: u64| hit as f64 / (hit + miss).max(1) as f64;
        m.put(
            format!("softcache.{name}.data_hit_ratio"),
            "ratio",
            ratio(dc.hits, dc.misses),
        );
        m.put(
            format!("softcache.{name}.data_bytes_fetched"),
            "bytes",
            dc.bytes_fetched as f64,
        );
        m.put(
            format!("softcache.{name}.code_hit_ratio"),
            "ratio",
            ratio(cc.method_hits, cc.method_misses),
        );
    }
    m.put("jit.compilations", "count", compilations as f64);
    m.put("core.thread_switches", "count", switches as f64);
    m.put("core.migrations", "count", migrations as f64);

    // Hooks: each cell with the hook off and on, back to back (the order
    // alternating between cells). Virtual time must not move.
    type Hook = fn(VmConfig, u64) -> VmConfig;
    let hooks: [(&str, Hook); 3] = [
        ("trace.overhead_ratio", |c, _| c.with_tracing()),
        ("prof.overhead_ratio", |c, _| c.with_profiling()),
        ("faults.inert_overhead_ratio", |c, seed| {
            c.with_faults(FaultPlan::seeded(seed))
        }),
    ];
    for (metric, hook) in hooks {
        spans.begin_pass(format!("vm-grid {metric}"));
        let (mut on, mut off) = (0.0, 0.0);
        for (i, cell) in cells.iter().enumerate() {
            let pair = paired(
                cell,
                hook(cell.vm, seed),
                i % 2 == 1,
                stats[i].as_ref(),
                spans,
            );
            if let Some((s_on, s_off)) = tally.check(pair) {
                on += s_on.secs;
                off += s_off.secs;
            }
        }
        m.put(metric, "ratio", on / off);
    }

    // Speculative parallelism on the six-SPE cells: two host workers
    // where the host has them (never more threads than CPUs).
    let workers = crate::util::nproc().min(2) as u32;
    for (i, cell) in cells.iter().enumerate().filter(|(_, c)| c.config == "spe6") {
        spans.begin_pass(format!("vm-grid {} workers={workers}", cell.name()));
        let vm = cell.vm.with_host_workers(workers);
        let pair = paired(cell, vm, false, stats[i].as_ref(), spans);
        let w = cell.workload.name();
        let (ratio, commit) = match tally.check(pair) {
            Some((on, off)) => {
                let spec = on.par.committed + on.par.reexec + on.par.discarded;
                (
                    on.secs / off.secs,
                    on.par.committed as f64 / spec.max(1) as f64,
                )
            }
            None => (0.0, 0.0),
        };
        m.put(format!("par.{w}.spe6.w2_ratio"), "ratio", ratio);
        m.put(format!("par.{w}.spe6.commit_ratio"), "ratio", commit);
    }
    Ok(gc)
}

/// Run `cell` under its own config and under `vm` back to back (`vm`
/// first when `on_first`), returning `(with vm, without)`. Both runs must
/// match `base`'s virtual time exactly.
fn paired(
    cell: &grid::Cell,
    vm: VmConfig,
    on_first: bool,
    base: Option<&hera_core::RunStats>,
    spans: &mut Spans,
) -> Result<(grid::Sample, grid::Sample), String> {
    let mut run = |vm| {
        let s = grid::run(cell, vm, spans)?;
        match base {
            Some(b)
                if b.wall_cycles != s.stats.wall_cycles
                    || b.per_core_cycles != s.stats.per_core_cycles =>
            {
                Err(format!("{}: a hook moved virtual time", cell.name()))
            }
            _ => Ok(s),
        }
    };
    if on_first {
        let on = run(vm)?;
        Ok((on, run(cell.vm)?))
    } else {
        let off = run(cell.vm)?;
        Ok((run(vm)?, off))
    }
}

/// Snapshot codec cost on the recovery fleet's reference configurations:
/// each run with and without the fleet's checkpoints, plus adoption of
/// the last checkpoint on a fresh machine. Returns GC collections seen.
fn snap_layers(
    seed: u64,
    quick: bool,
    spans: &mut Spans,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<u64, String> {
    spans.begin_pass("snapshot");
    let fleet = Fleet::Recovery;
    let cfg = fleet.config(fleet::sub_seed(seed, 0), fleet.requests(quick));
    let classes = fleet::build_classes(&cfg, spans)?;
    let keys = fleet::ref_keys(&cfg);
    let reps = if quick { 1 } else { 2 };
    let mut gc = 0;
    let (mut extra_s, mut ckpts, mut bytes) = (0.0, 0u64, 0u64);
    let mut adopt_ms = Vec::new();
    for class in &classes {
        let (mut plain_s, mut ckpt_s) = (0.0, 0.0);
        for key in &keys {
            for _ in 0..reps {
                let open = spans.enter("snap.plain_run");
                let plain = fleet::ref_run(class, fleet::machine_vm(&cfg, key, false), spans);
                spans.exit(open);
                let open = spans.enter("snap.checkpointed_run");
                let ckpt = fleet::ref_run(class, fleet::machine_vm(&cfg, key, true), spans);
                spans.exit(open);
                let (Some(plain), Some(ckpt)) = (tally.check(plain), tally.check(ckpt)) else {
                    continue;
                };
                gc += plain.stats.gc.collections + ckpt.stats.gc.collections;
                plain_s += plain.secs;
                ckpt_s += ckpt.secs;
                extra_s += ckpt.secs - plain.secs;
                ckpts += ckpt.checkpoints.len() as u64;
                bytes += ckpt
                    .checkpoints
                    .iter()
                    .map(|c| c.bytes.len() as u64)
                    .sum::<u64>();
                if key.plan == FaultPlan::default() && key.spes == 6 {
                    if let Some(last) = ckpt.checkpoints.last() {
                        let r = adopt(
                            class,
                            fleet::machine_vm(&cfg, key, true),
                            &last.bytes,
                            spans,
                        );
                        if let Some(ms) = tally.check(r) {
                            adopt_ms.push(ms);
                        }
                    }
                }
            }
        }
        let w = class.workload.name();
        m.put(
            format!("snap.{w}.ckpt_overhead_ratio"),
            "ratio",
            ckpt_s / plain_s,
        );
    }
    m.put(
        "snap.encode_ms_per_ckpt",
        "ms",
        extra_s * 1e3 / ckpts.max(1) as f64,
    );
    m.put(
        "snap.ckpt_bytes_mean",
        "bytes",
        bytes as f64 / ckpts.max(1) as f64,
    );
    m.put("snap.adopt_ms", "ms", median(&adopt_ms));
    Ok(gc)
}

/// Adopt `snapshot` on a fresh machine and run it to the end; returns
/// the host milliseconds, after checking the result.
fn adopt(
    class: &fleet::Class,
    vm: VmConfig,
    snapshot: &[u8],
    spans: &mut Spans,
) -> Result<f64, String> {
    let what = format!("{} adoption", class.workload.name());
    let jvm = HeraJvm::new(class.program.clone(), vm).map_err(|e| format!("{what}: {e}"))?;
    let t0 = Instant::now();
    let out = spans
        .time("core.HeraJvm::adopt_bytes", || jvm.adopt_bytes(snapshot))
        .map_err(|e| format!("{what}: {e}"))?;
    let ms = secs(t0) * 1e3;
    if !out.is_clean() || out.result != Some(Value::I32(class.expected)) {
        return Err(format!(
            "{what}: result {:?}, host reference {}",
            out.result, class.expected
        ));
    }
    Ok(ms)
}

/// Both fleets' matrices over the run's sub-seeds: per-row tail and
/// goodput, headline decision counts, and the event-loop cost per
/// request from the traffic matrix at two trace lengths.
fn cluster_layers(seed: u64, quick: bool, spans: &mut Spans, tally: &mut Tally, m: &mut Metrics) {
    for fleet in [Fleet::Recovery, Fleet::Traffic] {
        let requests = fleet.requests(quick);
        let mut runs = Vec::new();
        for i in 0..fleet.sub_seeds(quick) {
            let cfg = fleet.config(fleet::sub_seed(seed, i), requests);
            spans.begin_pass(format!("{} seed {}", fleet.name(), cfg.seed));
            if let Some(r) = tally.check(fleet::run_matrix(fleet, &cfg, spans)) {
                runs.push(r);
            }
        }
        for (j, slug) in fleet.row_slugs().iter().enumerate() {
            let tail: Vec<f64> = runs
                .iter()
                .map(|r| match fleet {
                    Fleet::Recovery => r.rows[j].p95 as f64,
                    Fleet::Traffic => r.rows[j].p999 as f64,
                })
                .collect();
            let good: Vec<f64> = runs.iter().map(|r| fleet::goodput(&r.rows[j])).collect();
            let prefix = format!("cluster.{}.{slug}", fleet.name());
            m.put(format!("{prefix}.{}", fleet.tail()), "vcycles", mean(&tail));
            m.put(format!("{prefix}.goodput"), "ratio", mean(&good));
        }
        let sum = |f: &dyn Fn(&fleet::MatrixRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
        match fleet {
            Fleet::Recovery => {
                let stat = |f: fn(&hera_cluster::RebalStats) -> u64| {
                    sum(&|r| f(r.stats.last().expect("rebal stats per row")))
                };
                m.put("cluster.drains", "count", stat(|s| s.drains));
                m.put("cluster.rebalance_moves", "count", stat(|s| s.moves));
                m.put(
                    "cluster.adoption_proofs",
                    "count",
                    stat(|s| s.adoption_proofs),
                );
                m.put(
                    "cluster.cross_shape_proofs",
                    "count",
                    stat(|s| s.cross_shape),
                );
            }
            Fleet::Traffic => {
                let hedges = sum(&|r| r.headline().hedges);
                m.put(
                    "cluster.hedge_win_ratio",
                    "ratio",
                    sum(&|r| r.headline().hedge_wins) / hedges.max(1.0),
                );
                m.put("cluster.retries", "count", sum(&|r| r.headline().retries));
                m.put(
                    "cluster.breaker_trips",
                    "count",
                    sum(&|r| r.headline().breaker_trips),
                );

                // Each sub-seed again at half the trace length: the time
                // difference is the cost of the extra requests' events.
                let half = requests / 2;
                let rows = fleet.row_slugs().len() as f64;
                let mut per_req_us = Vec::new();
                for full in &runs {
                    let cfg = fleet.config(full.seed, half);
                    spans.begin_pass(format!("fleet-traffic seed {} half trace", cfg.seed));
                    if let Some(short) = tally.check(fleet::run_matrix(fleet, &cfg, spans)) {
                        let extra = (requests - half) as f64 * rows;
                        per_req_us.push((full.secs - short.secs) * 1e6 / extra);
                    }
                }
                m.put("cluster.event_us_per_req", "us", median(&per_req_us));

                let ms = spans.time("cluster.traffic::generate", || {
                    ns_per_call(if quick { 2 } else { 5 }, 1, || {
                        black_box(hera_cluster::traffic::generate(
                            seed,
                            requests,
                            100_000,
                            hera_cluster::ArrivalShape::Exponential,
                            &[1, 1, 1],
                        ));
                    })
                }) / 1e6;
                m.put("cluster.traffic_generate_ms", "ms", ms);
            }
        }
    }
}
