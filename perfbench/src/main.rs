//! Same-host benchmark of the Hera-JVM simulator.
//!
//! ```text
//! perfbench --workload <vm-grid|fleet-recovery|fleet-traffic> --seed <n>
//!           --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! Run from the repository root. With `--trace 0` it sets the workload up
//! several times, then measures it for `--seconds` with tracing off and
//! prints the end-to-end metrics. With `--trace 1` it makes the separate
//! traced run instead and prints the per-layer metrics. Every output is
//! checked; any failed check makes the run exit nonzero. The last line of
//! standard output is the JSON result. `--quick` shrinks every workload
//! for the self-test. See `README.md` for the metrics.

mod fleet;
mod grid;
mod layers;
mod spans;
mod util;

use fleet::Fleet;
use spans::Spans;
use std::time::Instant;
use util::{mean, median, secs, Manifest, Metrics};

/// Where results and spans are written, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// Set-ups per end-to-end run; `setup_s` is their median. `peak_rss_mb`
/// is read after the set-ups and the first timed pass or replay, a fixed
/// amount of work, so it does not grow with `--seconds`.
const SETUP_REPS: usize = 3;

/// Grid passes timed at least, however short `--seconds` is.
const MIN_GRID_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

impl Args {
    fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            SETUP_REPS
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => args.trace = num()? != 0,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !matches!(
        args.workload.as_str(),
        "vm-grid" | "fleet-recovery" | "fleet-traffic"
    ) {
        return Err(format!(
            "--workload must be vm-grid, fleet-recovery or fleet-traffic (got '{}')",
            args.workload
        ));
    }
    Ok(args)
}

/// Operations attempted and failed. Every checked call (a VM run, a
/// reference run, a matrix replay) is one operation.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one checked call, reporting a failure on standard error.
    pub fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAIL: {e}");
                None
            }
        }
    }
}

/// The digests of every configuration a workload runs.
fn config_digests(args: &Args) -> Vec<(String, u64)> {
    let mut d = Vec::new();
    if args.workload == "vm-grid" || args.trace {
        for (label, _, spes) in grid::CONFIGS {
            let vm = grid::vm_config(spes);
            d.push((
                format!("vm.{label}"),
                hera_core::snapshot::config_digest(&vm),
            ));
        }
    }
    for fleet in [Fleet::Recovery, Fleet::Traffic] {
        if args.workload != fleet.name() && !args.trace {
            continue;
        }
        for i in 0..fleet.sub_seeds(args.quick) {
            let cfg = fleet.config(fleet::sub_seed(args.seed, i), fleet.requests(args.quick));
            d.push((
                format!("{}.seed{}", fleet.name(), cfg.seed),
                util::debug_digest(&cfg),
            ));
        }
    }
    d
}

fn e2e_grid(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let scale = if args.quick { 0.05 } else { 1.0 };
    let committed = if args.quick {
        None
    } else {
        Some(grid::committed_rows()?)
    };
    let mut spans = Spans::new(false);
    let mut setup = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..args.setup_reps() {
        let t0 = Instant::now();
        cells = grid::setup(scale, committed.as_deref(), &mut spans)?;
        for r in grid::pass(&cells, &mut spans).1 {
            tally.check(r);
        }
        setup.push(secs(t0));
    }

    // Each cell's fastest timed run: interference from the rest of a
    // shared host only ever slows a run down, so the fastest of several
    // is the steadiest estimate of what the code costs.
    let mut fastest = vec![f64::INFINITY; cells.len()];
    let mut ops = vec![0; cells.len()];
    let mut walls = Vec::new();
    let (mut passes, mut runs, mut good) = (0, 0, 0);
    let mut rss = None;
    let t0 = Instant::now();
    while passes < MIN_GRID_PASSES || secs(t0) < args.seconds as f64 {
        passes += 1;
        let results = grid::pass(&cells, &mut spans).1;
        runs += results.len();
        walls.clear();
        for (i, r) in results.into_iter().enumerate() {
            let Some(s) = tally.check(r) else {
                continue;
            };
            good += 1;
            fastest[i] = fastest[i].min(s.secs);
            ops[i] = s.guest_ops();
            walls.push(s.stats.wall_cycles);
        }
        rss.get_or_insert_with(util::peak_rss_mb);
    }
    walls.sort_unstable();
    let timed: Vec<usize> = (0..cells.len())
        .filter(|&i| fastest[i].is_finite())
        .collect();
    let pass_s: f64 = timed.iter().map(|&i| fastest[i]).sum();
    let pass_ops: u64 = timed.iter().map(|&i| ops[i]).sum();

    let mut m = Metrics::default();
    m.put("setup_s", "s", median(&setup));
    m.put("guest_mops_per_s", "Mops/s", pass_ops as f64 / pass_s / 1e6);
    m.put("fleet_req_per_s", "req/s", timed.len() as f64 / pass_s);
    m.put(
        "p50_vcycles",
        "vcycles",
        hera_trace::nearest_rank(&walls, 500) as f64,
    );
    m.put(
        "p95_vcycles",
        "vcycles",
        hera_trace::nearest_rank(&walls, 950) as f64,
    );
    m.put(
        "p999_vcycles",
        "vcycles",
        hera_trace::nearest_rank(&walls, 999) as f64,
    );
    m.put("goodput", "ratio", good as f64 / runs.max(1) as f64);
    m.put("peak_rss_mb", "MiB", rss.unwrap_or(0.0));
    println!(
        "vm-grid: {passes} timed passes of {} cells, throughput from each cell's fastest run \
         ({pass_s:.3} s a pass); latency percentiles over {} cell wall_cycles",
        cells.len(),
        walls.len()
    );
    Ok(m)
}

fn e2e_fleet(fleet: Fleet, args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let k = fleet.sub_seeds(args.quick);
    let requests = fleet.requests(args.quick);
    let cfgs: Vec<_> = (0..k)
        .map(|i| fleet.config(fleet::sub_seed(args.seed, i), requests))
        .collect();
    let mut spans = Spans::new(false);
    let mut digests: Vec<Option<u64>> = vec![None; k];
    let mut check_digest = |i: usize, run: &fleet::MatrixRun| -> Result<(), String> {
        match digests[i] {
            Some(d) if d != run.digest => Err(format!(
                "{} seed {}: report differs between passes of the same seed",
                fleet.name(),
                cfgs[i].seed
            )),
            _ => {
                digests[i] = Some(run.digest);
                Ok(())
            }
        }
    };

    let mut setup = Vec::new();
    let mut ref_ops = 0;
    for _ in 0..args.setup_reps() {
        let t0 = Instant::now();
        let classes = fleet::build_classes(&cfgs[0], &mut spans)?;
        ref_ops = tally
            .check(fleet::reference_ops(&cfgs[0], &classes, &mut spans))
            .unwrap_or(0);
        let warm = fleet::run_matrix(fleet, &cfgs[0], &mut spans);
        tally.check(warm.and_then(|r| check_digest(0, &r)));
        setup.push(secs(t0));
    }

    // Every sub-seed once, then round robin until `--seconds` is up. Each
    // sub-seed counts with its fastest replay, as the grid cells do, so
    // each weighs the same in the throughput however far the last round
    // got.
    let work = requests as f64 * fleet.row_slugs().len() as f64;
    let mut matrices = 0;
    let mut fastest = vec![f64::INFINITY; k];
    let mut headline: Vec<Option<hera_cluster::MatrixRow>> = vec![None; k];
    let mut rss = None;
    let t0 = Instant::now();
    for n in 0.. {
        let sub = n % k;
        if n >= k && secs(t0) >= args.seconds as f64 {
            break;
        }
        let run = fleet::run_matrix(fleet, &cfgs[sub], &mut spans)
            .and_then(|r| check_digest(sub, &r).map(|()| r));
        rss.get_or_insert_with(util::peak_rss_mb);
        let Some(run) = tally.check(run) else {
            continue;
        };
        matrices += 1;
        fastest[sub] = fastest[sub].min(run.secs);
        headline[sub].get_or_insert_with(|| run.headline().clone());
    }
    let replayed = fastest.iter().filter(|s| s.is_finite()).count() as f64;
    let busy_s: f64 = fastest.iter().filter(|s| s.is_finite()).sum();
    let heads: Vec<_> = headline.into_iter().flatten().collect();
    let per_seed =
        |f: fn(&hera_cluster::MatrixRow) -> f64| mean(&heads.iter().map(f).collect::<Vec<_>>());

    let mut m = Metrics::default();
    m.put("setup_s", "s", median(&setup));
    m.put(
        "guest_mops_per_s",
        "Mops/s",
        replayed * ref_ops as f64 / busy_s / 1e6,
    );
    m.put("fleet_req_per_s", "req/s", replayed * work / busy_s);
    m.put("p50_vcycles", "vcycles", per_seed(|r| r.p50 as f64));
    m.put("p95_vcycles", "vcycles", per_seed(|r| r.p95 as f64));
    m.put("p999_vcycles", "vcycles", per_seed(|r| r.p999 as f64));
    m.put("goodput", "ratio", per_seed(fleet::goodput));
    m.put("peak_rss_mb", "MiB", rss.unwrap_or(0.0));
    println!(
        "{}: {matrices} timed matrix replays over {k} sub-seeds, throughput from each \
         sub-seed's fastest replay; headline row percentiles are means over sub-seeds of {requests} requests each",
        fleet.name(),
    );
    Ok(m)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let manifest = Manifest {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        config_digests: config_digests(&args),
    }
    .json();
    println!("manifest {manifest}");

    let mut tally = Tally::default();
    let mut spans = Spans::new(true);
    let t0 = Instant::now();
    let result = if args.trace {
        layers::traced(
            &args.workload,
            args.seed,
            args.quick,
            &mut spans,
            &mut tally,
        )
    } else {
        match args.workload.as_str() {
            "vm-grid" => e2e_grid(&args, &mut tally),
            "fleet-recovery" => e2e_fleet(Fleet::Recovery, &args, &mut tally),
            _ => e2e_fleet(Fleet::Traffic, &args, &mut tally),
        }
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for m in &metrics.0 {
        println!("{:<48} {:>20.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "error_rate {} ({} failed / {} attempted); {:.1} s",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted,
        secs(t0)
    );
    let correct = tally.failed == 0 && tally.attempted > 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.json()
    );
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            format!("{stem}.json"),
            format!("{{\"manifest\": {manifest}, \"result\": {line}}}\n"),
        )?;
        if args.trace {
            std::fs::write(format!("{stem}-spans.json"), spans.json(&manifest))?;
        }
        Ok(())
    });
    match written {
        Ok(()) if args.trace => println!(
            "wrote {stem}.json and {} spans to {stem}-spans.json",
            spans.len()
        ),
        Ok(()) => println!("wrote {stem}.json"),
        Err(e) => eprintln!("perfbench: writing {stem}: {e}"),
    }
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
