//! The `vm-grid` workload: compress, mpegaudio and mandelbrot, each
//! pinned to the PPE, one SPE and six SPEs (the paper's Figure 4 cells),
//! run one VM at a time as a closed loop at `host_workers = 1`.

use crate::spans::Spans;
use crate::util::secs;
use hera_core::vm::ParStats;
use hera_core::{HeraJvm, RunStats, VmConfig};
use hera_isa::{Program, Value};
use hera_workloads::Workload;
use std::time::Instant;

/// The committed snapshot whose virtual metrics every full-scale run
/// must reproduce exactly. Read only.
pub const COMMITTED: &str = "BENCH_interp.json";

/// `(label, guest threads, SPEs)`; 0 SPEs means pinned to the PPE.
pub const CONFIGS: [(&str, u32, u8); 3] = [("ppe", 1, 0), ("spe1", 1, 1), ("spe6", 6, 6)];

/// The VM configuration of one grid column: the default `VmConfig`
/// pinned to the PPE or to `spes` SPEs, one host worker.
pub fn vm_config(spes: u8) -> VmConfig {
    match spes {
        0 => VmConfig::pinned_ppe(),
        n => VmConfig::pinned_spe(n),
    }
}

/// One grid cell, built and verified.
pub struct Cell {
    pub workload: Workload,
    pub config: &'static str,
    pub vm: VmConfig,
    pub program: Program,
    /// Host-computed reference checksum.
    pub expected: i32,
    /// Committed `(wall_cycles, guest_ops)`; checked at full scale only.
    pub committed: Option<(u64, u64)>,
}

impl Cell {
    pub fn name(&self) -> String {
        format!("{}.{}", self.workload.name(), self.config)
    }
}

/// What one checked run of a cell measured.
pub struct Sample {
    pub secs: f64,
    pub stats: RunStats,
    pub par: ParStats,
}

impl Sample {
    pub fn guest_ops(&self) -> u64 {
        self.stats.ppe.total_ops() + self.stats.spe.total_ops()
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// `(workload, config, wall_cycles, guest_ops)` rows of the committed
/// snapshot (one row object per line, as `figures -- perf` writes it).
pub fn committed_rows() -> Result<Vec<(String, String, u64, u64)>, String> {
    let text = std::fs::read_to_string(COMMITTED).map_err(|e| format!("read {COMMITTED}: {e}"))?;
    let rows: Vec<_> = text
        .lines()
        .filter_map(|l| {
            Some((
                field(l, "workload")?.to_string(),
                field(l, "config")?.to_string(),
                field(l, "wall_cycles")?.parse().ok()?,
                field(l, "guest_ops")?.parse().ok()?,
            ))
        })
        .collect();
    if rows.len() != 9 {
        return Err(format!(
            "{COMMITTED}: expected 9 rows, parsed {}",
            rows.len()
        ));
    }
    Ok(rows)
}

/// Build and verify the nine cells. With `committed`, every cell carries
/// the exact virtual metrics it must reproduce.
pub fn setup(
    scale: f64,
    committed: Option<&[(String, String, u64, u64)]>,
    spans: &mut Spans,
) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    for w in Workload::ALL {
        for (config, threads, spes) in CONFIGS {
            let (program, expected) = spans.time("workloads.build", || w.build(threads, scale));
            spans
                .time("isa.verify_program", || hera_isa::verify_program(&program))
                .map_err(|e| format!("{}.{config}: verify: {e:?}", w.name()))?;
            let committed = match committed {
                Some(rows) => Some(
                    rows.iter()
                        .find(|r| r.0 == w.name() && r.1 == config)
                        .map(|r| (r.2, r.3))
                        .ok_or_else(|| format!("{COMMITTED} has no {}.{config} row", w.name()))?,
                ),
                None => None,
            };
            cells.push(Cell {
                workload: w,
                config,
                vm: vm_config(spes),
                program,
                expected,
                committed,
            });
        }
    }
    Ok(cells)
}

/// Run `cell` under `vm` (its own config, or a variant with a hook
/// turned on) and check the result: a clean run, the host checksum, and
/// the committed virtual metrics when the cell has them. Only VM
/// construction and the run are timed.
pub fn run(cell: &Cell, vm: VmConfig, spans: &mut Spans) -> Result<Sample, String> {
    let name = cell.name();
    let program = cell.program.clone();
    let t0 = Instant::now();
    let jvm = spans
        .time("core.HeraJvm::new", || HeraJvm::new(program, vm))
        .map_err(|e| format!("{name}: construct: {e}"))?;
    let out = spans
        .time("core.HeraJvm::run", || jvm.run())
        .map_err(|e| format!("{name}: run: {e}"))?;
    let secs = secs(t0);
    if !out.is_clean() {
        return Err(format!("{name}: traps {:?}", out.traps));
    }
    if out.result != Some(Value::I32(cell.expected)) {
        return Err(format!(
            "{name}: result {:?}, host reference {}",
            out.result, cell.expected
        ));
    }
    let sample = Sample {
        secs,
        stats: out.stats,
        par: out.par,
    };
    if let Some((wall, ops)) = cell.committed {
        let got = (sample.stats.wall_cycles, sample.guest_ops());
        if got != (wall, ops) {
            return Err(format!(
                "{name}: (wall_cycles, guest_ops) = {got:?}, committed ({wall}, {ops})"
            ));
        }
    }
    Ok(sample)
}

/// One closed-loop pass over every cell. Returns the pass's wall time and
/// one result per cell.
pub fn pass(cells: &[Cell], spans: &mut Spans) -> (f64, Vec<Result<Sample, String>>) {
    let t0 = Instant::now();
    let results = cells
        .iter()
        .map(|c| {
            let open = spans.enter(format!("grid.{}", c.name()));
            let r = run(c, c.vm, spans);
            spans.exit(open);
            r
        })
        .collect();
    (secs(t0), results)
}
